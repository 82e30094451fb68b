"""tracereport: fold a ``repro-trace/1`` JSONL trace into summary tables.

The :class:`~repro.obs.trace.TraceRecorder` streams every counter,
event, and timing span of an instrumented run; this tool reads the
stream back (via :func:`repro.obs.read_trace`, so schema validation and
truncated-tail handling are shared with the library) and renders the
summaries operators actually ask of a sweep:

* **Top spans** -- count / total / mean / max seconds per span name,
  sorted by total time, so the expensive stage is the first row.
* **Counters** -- every monotonic counter, summed over the trace.
* **Cache hit rate** -- from the last ``cache_stats`` event (or, in a
  pool sweep's trace, the ``kernel_totals`` summed over its
  ``worker_obs_delta`` events), as an exact ``hits/(hits+misses)``
  :class:`fractions.Fraction`.
* **gfp fixpoints** -- how many greatest-fixed-point computations ran
  and how many iterations they took (``gfp`` events).
* **Retry histogram** -- attempts-per-task and outcome counts from the
  sweep engine's ``task_attempt`` events.

Usage::

    PYTHONPATH=src python -m tools.tracereport trace.jsonl
    PYTHONPATH=src python -m tools.tracereport --json trace.jsonl
    PYTHONPATH=src python -m tools.tracereport trace.jsonl --audit s.audit

``--audit`` folds a ``repro-audit/1`` bundle in as an audit section:
leaf/node totals, the chain root, and the exact hash-consing dedup ratio
(``repro-explain/1`` tree nodes over the bundle's node records).

Exit status: 0 on success, 2 when the trace is not a valid
``repro-trace/1`` artifact (a record the fold cannot read included) or
the ``--audit`` file is not a valid ``repro-audit/1`` bundle.
"""

from .report import render_audit, render_report, summarize, summarize_audit

__all__ = ["render_audit", "render_report", "summarize", "summarize_audit"]
