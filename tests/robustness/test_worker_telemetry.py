"""Cross-process telemetry: shipped deltas sum exactly, results unchanged.

The worker-shipping layer (``ObsDeltaCapture`` in the engine's
``_execute_task`` envelopes) claims two exact invariants:

1. **Byte-identical results** -- turning telemetry on changes counters,
   never rows.
2. **Exact accounting** -- after a pool sweep, every parent-side merged
   counter equals the sum of the per-attempt deltas the workers shipped
   (readable back out of the ``worker_obs_delta`` events), and the
   parent's :func:`repro.probability.kernel_totals` equals the sum of
   the shipped kernel deltas.  Kills and retries must not double-count:
   a killed worker ships no envelope, so its partial work is *lost*, not
   counted twice.

The chaos differential here drives both through the seeded fault
harness.  Pool-dependent assertions are skipped when the sandbox forces
the in-process fallback (``engine.pool_fallbacks``) -- the serial path
records directly to the parent recorder and ships nothing, by design.
"""

import os
from fractions import Fraction

import pytest

from repro.attack.sweep import sweep_row_of, sweep_tasks
from repro.obs import MetricsRecorder, MultiRecorder, Recorder, use_recorder
from repro.probability import kernel_totals, reset_kernel_totals
from repro.robustness import RetryPolicy, robust_guarantee_sweep, run_tasks
from repro.testing import FaultInjectingTask, FaultPlan

MESSENGERS = [1, 2]
LOSSES = [Fraction(1, 2)]
POLICY = RetryPolicy(max_attempts=5, base_delay=0.0, seed=11)


class _EventLog(Recorder):
    """Keeps every event's fields (MetricsRecorder only counts them)."""

    def __init__(self):
        self.events = []

    def event(self, kind, **fields):
        self.events.append((kind, fields))


@pytest.fixture(autouse=True)
def _clean_kernel_totals():
    reset_kernel_totals()
    yield
    reset_kernel_totals()


def _pool_sweep(plan=None, max_workers=2):
    """Instrumented pool sweep; returns (tasks, rows, metrics, event log)."""
    tasks = sweep_tasks(MESSENGERS, LOSSES)
    function = sweep_row_of if plan is None else FaultInjectingTask(sweep_row_of, plan)
    metrics = MetricsRecorder()
    log = _EventLog()
    with use_recorder(MultiRecorder([metrics, log])):
        rows = run_tasks(
            function,
            tasks,
            max_workers=max_workers,
            policy=POLICY,
        )
    return tasks, rows, metrics, log


def _worker_delta_events(log):
    return [fields for kind, fields in log.events if kind == "worker_obs_delta"]


def _sum_shipped(events, section):
    totals = {}
    for fields in events:
        for name, value in fields.get(section, {}).items():
            totals[name] = totals.get(name, 0) + int(value)
    return totals


def _skip_if_no_pool(metrics):
    if metrics.counters.get("engine.pool_fallbacks"):
        pytest.skip("process pools unavailable; serial path ships nothing")


class TestByteIdenticalResults:
    def test_shipping_on_vs_off(self):
        baseline_tasks, baseline_rows, _metrics, _log = _pool_sweep()
        # Uninstrumented run: no recorder installed at all.
        uninstrumented_rows = run_tasks(
            sweep_row_of,
            sweep_tasks(MESSENGERS, LOSSES),
            max_workers=2,
            policy=POLICY,
        )
        serial_rows = [sweep_row_of(task) for task in baseline_tasks]
        assert baseline_rows == serial_rows
        assert uninstrumented_rows == serial_rows


class TestExactAccounting:
    def test_parent_counters_equal_shipped_delta_sums(self):
        _tasks, _rows, metrics, log = _pool_sweep()
        _skip_if_no_pool(metrics)
        events = _worker_delta_events(log)
        assert events, "pool sweep shipped no deltas"

        shipped_counters = _sum_shipped(events, "counters")
        for name, total in shipped_counters.items():
            assert metrics.counters[name] == total, name
        # Each count is recorded once; the pid that computed it rides on
        # the worker_obs_delta event, never in a counter name.
        assert all(fields["worker"] != os.getpid() for fields in events)
        assert not [name for name in metrics.counters if name.startswith("worker.")]

    def test_parent_kernel_totals_equal_shipped_kernel_sums(self):
        tasks, _rows, metrics, log = _pool_sweep()
        _skip_if_no_pool(metrics)
        shipped_kernel = _sum_shipped(_worker_delta_events(log), "kernel_totals")
        parent = {name: value for name, value in kernel_totals().items() if value}
        assert parent == {name: value for name, value in shipped_kernel.items() if value}
        # And the merged whole equals a serial rerun of the same tasks.
        reset_kernel_totals()
        for task in tasks:
            sweep_row_of(task)
        serial = {name: value for name, value in kernel_totals().items() if value}
        assert parent == serial

    def test_chaos_kills_and_retries_do_not_double_count(self):
        plan = FaultPlan.from_seed(
            seed=23, task_count=6, kinds=("raise", "kill"), rate=0.6,
            max_faulty_attempts=3,
        )
        tasks, rows, metrics, log = _pool_sweep(plan=plan)
        # Chaos never changes results.
        assert rows == [sweep_row_of(task) for task in tasks]
        reset_kernel_totals()
        _skip_if_no_pool(metrics)

        events = _worker_delta_events(log)
        # Exactly one shipped envelope per *harvested* attempt: ok and
        # raised outcomes came back inside an envelope (with its delta),
        # while killed workers -- and tasks lost with a broken pool --
        # ship nothing: their partial work is lost, never double-counted.
        kinds = {fault.kind for fault in plan.schedule.values()}
        assert {"raise", "kill"} <= kinds, "seed no longer exercises both kinds"
        harvested = metrics.counters["engine.tasks_ok"] + metrics.counters.get(
            "engine.raised", 0
        )
        assert len(events) == harvested
        assert metrics.counters.get("engine.worker_lost", 0) > 0, (
            "no kill actually fired; the chaos run proved nothing"
        )
        assert metrics.counters["engine.attempts"] > harvested

        # Parent counters still equal the shipped sums exactly.
        shipped_counters = _sum_shipped(events, "counters")
        for name, total in shipped_counters.items():
            assert metrics.counters[name] == total, name


def _plain_serial_sweep(tmp_path):
    run_tasks(
        sweep_row_of,
        sweep_tasks(MESSENGERS, LOSSES),
        max_workers=1,
    )


def _audited_serial_sweep(tmp_path):
    robust_guarantee_sweep(
        MESSENGERS,
        LOSSES,
        max_workers=1,
        checkpoint_path=tmp_path / "sweep.jsonl",
        audit=True,
    )


class TestEventVocabulary:
    @pytest.mark.parametrize(
        "sweep", [_plain_serial_sweep, _audited_serial_sweep], ids=["plain", "audited"]
    )
    def test_serial_sweep_events(self, sweep, tmp_path):
        # Every row opens one sweep_row span and reports its kernel
        # totals in one cache_stats event, whichever path computed it;
        # the engine adds one task_attempt.  Nothing else is emitted.
        metrics = MetricsRecorder()
        with use_recorder(metrics):
            sweep(tmp_path)
        events = {
            name: count
            for name, count in metrics.counters.items()
            if name.startswith("event:")
        }
        assert events == {"event:cache_stats": 6, "event:task_attempt": 6}
        spans = {path: stats.count for path, stats in metrics.spans.items()}
        assert spans == {"run_tasks": 1, "run_tasks/sweep_row": 6}
