"""reprotop: a live top-style monitor for long guarantee sweeps.

The fault-tolerant sweep engine (``repro.robustness``) emits
``sweep_progress`` events, per-worker shipped counters and cache
statistics into its ``repro-trace/1`` stream; this tool tails that
stream (or counts the rows of a sweep checkpoint) and renders a
refreshing status table:

* **Progress** -- done/total, percent, retry count, elapsed seconds and
  an ETA extrapolated from the observed row rate.
* **Retry histogram** -- attempts-per-task from ``task_attempt`` events.
* **Per-worker kernel throughput** -- measure-kernel queries attributed
  to each worker pid by the cross-process telemetry layer
  (``repro.obs.snapshot``).
* **Cache hit rate** -- exact ``hits/(hits+misses)`` Fraction.

Usage::

    PYTHONPATH=src python -m tools.reprotop trace.jsonl
    PYTHONPATH=src python -m tools.reprotop --once --json trace.jsonl
    PYTHONPATH=src python -m tools.reprotop --checkpoint sweep.jsonl --total 42

``--once`` renders a single status and exits (CI mode); ``--json``
emits the status dict via :func:`repro.reporting.json_ready` instead of
tables.  Exit status: 0 on success (including a clean Ctrl-C), 2 when
an input is unreadable or violates its schema.

Like the other tools this is an *auditor*: it only imports repro's
read-only surface (``errors``, ``obs``, ``reporting``) and its only
clock reads go through ``repro.obs.clock`` (reprolint RL008 holds for
``tools/`` too; ``time.sleep`` between refreshes is the sanctioned
exception).
"""

from .monitor import SweepMonitor, checkpoint_status, render_status

__all__ = ["SweepMonitor", "checkpoint_status", "render_status"]
