"""Repository tooling that is *not* part of the installed ``repro`` package.

Two static-analysis tiers plus three artifact CLIs:

* ``tools.reprolint`` -- intra-file, syntactic invariant checker
  (``python -m tools.reprolint src/repro tools``).
* ``tools.reproflow`` -- whole-program dataflow analyzer: call graph +
  effect inference over ``src/repro`` (``python -m tools.reproflow
  src/repro``).
* ``tools.tracereport`` / ``tools.tracediff`` -- fold and diff the
  ``repro-trace/1`` / ``repro-explain/1`` / ``repro-audit/1`` artifacts
  (``tracediff`` reads ``tracereport``'s fold of each trace).
* ``tools.verifyaudit`` -- certify a ``repro-audit/1`` Merkle bundle
  without recomputing its sweep.
"""

__all__ = []
