"""reproflow: whole-program dataflow analyzer (the second static tier).

Where ``tools.reprolint`` judges one file at a time, this tier builds a
cross-module symbol table and call graph over ``src/repro``, runs a
fixpoint effect inference (clock reads, unseeded randomness, global
mutation, io, float taint -- each with a witness chain), and checks four
interprocedural invariants in the same registry/suppression framework:

* RL009 -- every function reachable from a task payload (run_tasks,
  the sweep builder registry) is transitively free of clock reads,
  unseeded randomness, and global mutation.
* RL010 -- no call edge from the exact subpackages (probability, core,
  betting, logic) to a float-returning function outside them;
  ``fractionutil`` stays the sanctioned boundary, and RL001 keeps the
  fast intra-file pass.
* RL011 -- pool payloads are module-level callables: no lambdas, no
  nested functions, nothing the spawn start method cannot pickle.
* RL012 -- docstrings declaring ``Deterministic.`` / ``Exact.``
  contracts match the inferred effect summaries.

Every run extracts every file afresh -- a summary depends on the
file's package context as well as its bytes -- and recomputes the
fixpoint.  The ``--report`` artifact (``repro-flow/1``) is content-only
and diffable.

Usage::

    python -m tools.reproflow src/repro              # human output
    python -m tools.reproflow --json src/repro       # machine-readable
    python -m tools.reproflow --report flow.json src/repro
    python -m tools.reproflow --explain RL009
    python -m tools.reproflow --list-rules

Suppress with ``# reproflow: disable=RL009`` (file-wide on a standalone
line, per line as a trailing comment); ``# reprolint:`` spellings are
honoured too -- one rule-id namespace across both tiers.
"""

from .engine import FlowReport, analyze_paths, package_identity
from .extract import extract_module, sha256_of
from .program import Program
from .report import REPORT_SCHEMA, build_report
from .rules.base import FLOW_REGISTRY, FlowRule, POOL_ENTRY_POINTS

__all__ = [
    "FLOW_REGISTRY",
    "FlowReport",
    "FlowRule",
    "POOL_ENTRY_POINTS",
    "Program",
    "REPORT_SCHEMA",
    "analyze_paths",
    "build_report",
    "extract_module",
    "package_identity",
    "sha256_of",
]
