"""tracediff: explain *why* two runs differ, not just that they do.

Compares two observability artifacts -- ``repro-trace/1`` JSONL traces,
``repro-explain/1`` derivation files, or ``repro-audit/1`` Merkle audit
bundles (auto-detected) -- and reports:

* **counter deltas** -- every monotonic counter whose folded total
  changed between the runs;
* **hit-rate shift** -- the exact measure-kernel cache hit rate of each
  run (a :class:`fractions.Fraction`) and their exact difference;
* **timing ratios** -- per-span-name total-seconds ratio B/A (reported,
  never failed on: timing drifts, content must not);
* **first divergence** -- the first position where the two normalised
  record streams disagree, and, when the diverging records carry
  ``repro-explain/1`` derivations, the first diverging *derivation node*
  by tree path (aligned by derivation fingerprint).

Worker-shipped counters are content with their pids masked (the
telemetry layer ships deterministic per-attempt deltas, only their pid
labels vary).  Two runs with the same seeds and fault plan must produce
zero divergence; two chaos runs with different fault plans diverge, and
the first diverging record localises where.  ``--bisect`` skips the
aggregate summaries and binary-searches straight to the first diverging
record (rolling hash chains over normalised records, the bundle's own
Merkle chain for ``repro-audit/1``) or derivation node, printing a
minimal reproduction pointer.  Usage::

    PYTHONPATH=src python -m tools.tracediff A.jsonl B.jsonl
    PYTHONPATH=src python -m tools.tracediff --json A B
    PYTHONPATH=src python -m tools.tracediff --bisect A.audit B.audit
    make trace-diff A=a.jsonl B=b.jsonl

Exit status: 0 on success (divergence or not), 1 with
``--fail-on-divergence`` when content diverged, 2 when either file is
unreadable or fails schema validation -- the only condition CI fails on.
"""

from .bisect import bisect_artifacts, render_bisect
from .diff import (
    diff_artifacts,
    diff_audit,
    diff_derivations,
    diff_traces,
    load_artifact,
    render_diff,
)

__all__ = [
    "bisect_artifacts",
    "diff_artifacts",
    "diff_audit",
    "diff_derivations",
    "diff_traces",
    "load_artifact",
    "render_bisect",
    "render_diff",
]
