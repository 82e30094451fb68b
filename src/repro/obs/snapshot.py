"""Cross-process telemetry: per-attempt metric deltas.

The active recorder is process-global, so a pool worker cannot report
to the parent's recorder directly.  Instead the worker freezes its
aggregates before and after each attempt -- the counters, gauges and
span statistics of a :class:`~repro.obs.metrics.MetricsRecorder`
together with the process-wide measure-kernel totals of
:func:`repro.probability.bitset.kernel_totals` -- and the two snapshots
subtract (:func:`snapshot_delta`) into a shippable, picklable delta.
That delta is what the fault-tolerant engine's workers return inside
their task envelopes, and what the parent folds back into its own
recorder (:func:`merge_worker_delta`) with per-worker pid attribution --
so ``kernel_totals()`` in the parent reflects the whole sweep, not just
parent-side work.

Snapshots and deltas live in memory only; nothing here writes a file.
Like the rest of the observability layer this is one-way glass: nothing
here returns a value that instrumented code could branch on, and a run
that ships deltas computes byte-identical results to one that does not.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from .metrics import MetricsRecorder
from .recorder import Recorder, set_recorder

__all__ = [
    "ObsDeltaCapture",
    "merge_worker_delta",
    "snapshot_delta",
    "take_snapshot",
]


def _kernel_totals() -> Dict[str, int]:
    # Deferred: repro.probability.bitset imports repro.obs.recorder at
    # module scope, so importing it here at module scope would cycle
    # through the package initialisers.
    from ..probability.bitset import kernel_totals

    return kernel_totals()


def take_snapshot(
    metrics: Optional[MetricsRecorder] = None,
    kernel: Optional[Dict[str, int]] = None,
) -> Dict[str, object]:
    """Freeze the current aggregates: the four sections
    :func:`snapshot_delta` subtracts.

    ``metrics`` supplies the counters/gauges/spans (``None``: empty
    aggregates -- the snapshot still carries the kernel totals);
    ``kernel`` replaces the process-wide :func:`kernel_totals` reading.
    """
    base = metrics.snapshot() if metrics is not None else {
        "counters": {},
        "gauges": {},
        "spans": {},
    }
    return {
        "counters": base["counters"],
        "gauges": base["gauges"],
        "spans": base["spans"],
        "kernel_totals": dict(kernel) if kernel is not None else _kernel_totals(),
    }


def _diff_counters(before: Dict, after: Dict) -> Dict[str, int]:
    deltas = {}
    for name in sorted(set(before) | set(after)):
        delta = int(after.get(name, 0)) - int(before.get(name, 0))
        if delta:
            deltas[name] = delta
    return deltas


def snapshot_delta(before: Dict, after: Dict) -> Dict[str, object]:
    """The shippable difference between two snapshots of one process.

    Counters and kernel totals subtract exactly (zero deltas dropped);
    gauges keep the ``after`` value (a gauge is last-value, not a sum);
    spans subtract count and total seconds per path.  The result is
    plain picklable dicts -- the form worker envelopes carry.
    """
    span_deltas: Dict[str, Dict[str, object]] = {}
    spans_before = before.get("spans", {})
    spans_after = after.get("spans", {})
    for path in sorted(set(spans_before) | set(spans_after)):
        entry_before = spans_before.get(path, {})
        entry_after = spans_after.get(path, {})
        count = int(entry_after.get("count", 0)) - int(entry_before.get("count", 0))
        seconds = float(entry_after.get("total_seconds", 0.0)) - float(
            entry_before.get("total_seconds", 0.0)
        )
        if count or seconds:
            span_deltas[path] = {"count": count, "total_seconds": seconds}
    return {
        "counters": _diff_counters(
            before.get("counters", {}), after.get("counters", {})
        ),
        "gauges": dict(after.get("gauges", {})),
        "spans": span_deltas,
        "kernel_totals": _diff_counters(
            before.get("kernel_totals", {}), after.get("kernel_totals", {})
        ),
    }


class ObsDeltaCapture:
    """Capture one block's observations as a shippable delta.

    The worker side of the cross-process shipping: entering installs a
    fresh :class:`MetricsRecorder` process-wide and snapshots the kernel
    totals; exiting restores the previous recorder and leaves ``delta``
    holding exactly what the block contributed (counters, gauges, span
    stats, kernel-total increments) as plain picklable dicts.  The
    capture is exception-transparent -- a raising block still yields its
    partial delta, so failed attempts stay attributable.
    """

    __slots__ = ("delta", "worker", "_metrics", "_kernel_before", "_previous")

    def __init__(self) -> None:
        self.delta: Optional[Dict[str, object]] = None
        self.worker = os.getpid()

    def __enter__(self) -> "ObsDeltaCapture":
        self._metrics = MetricsRecorder()
        self._kernel_before = _kernel_totals()
        self._previous = set_recorder(self._metrics)
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        set_recorder(self._previous)
        self.delta = snapshot_delta(
            {"kernel_totals": self._kernel_before}, take_snapshot(self._metrics)
        )
        return False


def merge_worker_delta(
    recorder: Recorder,
    delta: Dict[str, object],
    worker: Optional[int] = None,
    **event_fields,
) -> None:
    """Fold a worker's shipped delta into the parent's observations.

    Counters land twice: once under their plain name (so parent totals
    equal the exact sum of every shipped delta) and once under
    ``worker.<pid>.<name>`` (per-worker attribution, which is what the
    ``reprotop`` throughput table reads).  Kernel totals merge into this
    process's :func:`~repro.probability.bitset.kernel_totals` *and*
    into ``worker.<pid>.kernel.<key>`` counters; gauges are recorded
    under the worker prefix only (a worker's last value must not
    overwrite the parent's).  Span timings stay inside the emitted
    ``worker_obs_delta`` event -- they are timing, not content.  Must be
    called exactly once per harvested envelope: the engine reads each
    future at most once, which is what makes retried and killed attempts
    impossible to double-count.
    """
    from ..probability.bitset import merge_kernel_totals

    prefix = f"worker.{worker if worker is not None else 'unknown'}."
    counters = delta.get("counters", {})
    for name in sorted(counters):
        value = int(counters[name])
        recorder.counter(name, value)
        recorder.counter(prefix + name, value)
    kernel = {key: int(value) for key, value in delta.get("kernel_totals", {}).items()}
    merge_kernel_totals(kernel)
    for key in sorted(kernel):
        if kernel[key]:
            recorder.counter(f"{prefix}kernel.{key}", kernel[key])
    gauges = delta.get("gauges", {})
    for name in sorted(gauges):
        recorder.gauge(prefix + name, gauges[name])
    recorder.event(
        "worker_obs_delta",
        worker=worker,
        counters=dict(counters),
        kernel_totals=kernel,
        spans=dict(delta.get("spans", {})),
        **event_fields,
    )
