"""Cross-process telemetry: per-attempt observation deltas.

The active recorder is process-global, so a pool worker cannot report
to the parent's recorder directly.  Instead each attempt runs under a
fresh :class:`~repro.obs.metrics.MetricsRecorder`
(:class:`ObsDeltaCapture`), so that recorder's counters and span stats
are exactly the attempt's own; together with the attempt's difference
of the process-wide measure-kernel totals
(:func:`repro.probability.bitset.kernel_totals`) they form a shippable,
picklable delta.  That delta is what the fault-tolerant engine's
workers return inside their task envelopes, and what the parent folds
back into its own recorder (:func:`merge_worker_delta`) -- so
``kernel_totals()`` in the parent reflects the whole sweep, not just
parent-side work.

Deltas live in memory only; nothing here writes a file.  Like the rest
of the observability layer this is one-way glass: nothing here returns
a value that instrumented code could branch on, and a run that ships
deltas computes byte-identical results to one that does not.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from .metrics import MetricsRecorder
from .recorder import Recorder, set_recorder

__all__ = ["ObsDeltaCapture", "merge_worker_delta"]


def _kernel_totals() -> Dict[str, int]:
    # Deferred: repro.probability.bitset imports repro.obs.recorder at
    # module scope, so importing it here at module scope would cycle
    # through the package initialisers.
    from ..probability.bitset import kernel_totals

    return kernel_totals()


class ObsDeltaCapture:
    """Capture one block's observations as a shippable delta.

    The worker side of the cross-process shipping: entering installs a
    fresh :class:`MetricsRecorder` process-wide and reads the kernel
    totals; exiting restores the previous recorder and leaves ``delta``
    holding exactly what the block contributed -- the fresh recorder's
    ``counters`` and ``spans`` (its :meth:`~MetricsRecorder.snapshot`)
    and the nonzero kernel-total increments under ``kernel_totals`` --
    as plain picklable dicts.  The capture is exception-transparent -- a
    raising block still yields its partial delta, so failed attempts
    stay attributable.
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
        before = self._kernel_before
        self.delta = {
            **self._metrics.snapshot(),
            "kernel_totals": {
                key: value - before[key]
                for key, value in _kernel_totals().items()
                if value != before[key]
            },
        }
        return False


def merge_worker_delta(
    recorder: Recorder,
    delta: Dict[str, object],
    worker: Optional[int] = None,
    **event_fields,
) -> None:
    """Fold a worker's shipped delta into the parent's observations.

    Each counter lands once, under its own name, so parent totals equal
    the exact sum of every shipped delta.  Kernel totals merge into this
    process's :func:`~repro.probability.bitset.kernel_totals`.  The
    worker's pid, counters, kernel delta and span timings stay together
    on the one emitted ``worker_obs_delta`` event, which is what
    ``tracereport`` sums into a pool sweep's cache hit rate.  Must be
    called exactly once per harvested envelope: the engine reads each
    future at most once, which is what makes retried and killed attempts
    impossible to double-count.
    """
    from ..probability.bitset import merge_kernel_totals

    counters = delta["counters"]
    for name in sorted(counters):
        recorder.counter(name, counters[name])
    merge_kernel_totals(delta["kernel_totals"])
    recorder.event(
        "worker_obs_delta",
        worker=worker,
        counters=counters,
        kernel_totals=delta["kernel_totals"],
        spans=delta["spans"],
        **event_fields,
    )
