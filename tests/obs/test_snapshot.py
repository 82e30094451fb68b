"""In-memory metric snapshots: shape, deltas, worker capture and merge."""

import os
from fractions import Fraction

import pytest

from repro.obs import (
    MetricsRecorder,
    NULL_RECORDER,
    ObsDeltaCapture,
    get_recorder,
    merge_worker_delta,
    snapshot_delta,
    take_snapshot,
    use_recorder,
)
from repro.probability import kernel_totals, reset_kernel_totals
from repro.probability.bitset import merge_kernel_totals


def _instrumented_recorder():
    metrics = MetricsRecorder()
    metrics.counter("model.points", 12)
    metrics.counter("model.gfp_fixpoints", 2)
    metrics.counter("model.gfp_iterations", 7)
    metrics.gauge("exact.p", Fraction(1, 3))
    with metrics.span("build"):
        pass
    return metrics


class TestTakeSnapshot:
    def test_shape_and_derived_sections(self):
        # Exactly the four sections snapshot_delta subtracts: no derived
        # sections ride along.
        snapshot = take_snapshot(
            _instrumented_recorder(),
            kernel={"cache_hits": 3, "cache_misses": 1},
        )
        assert set(snapshot) == {"counters", "gauges", "spans", "kernel_totals"}
        assert snapshot["counters"]["model.points"] == 12
        assert snapshot["counters"]["model.gfp_iterations"] == 7
        assert snapshot["gauges"]["exact.p"] == Fraction(1, 3)
        assert snapshot["spans"]["build"]["count"] == 1
        assert snapshot["kernel_totals"] == {"cache_hits": 3, "cache_misses": 1}

    def test_no_recorder_still_carries_kernel_totals(self):
        snapshot = take_snapshot(kernel={"naive_queries": 5})
        assert snapshot["counters"] == {}
        assert snapshot["kernel_totals"]["naive_queries"] == 5


class TestSnapshotDelta:
    def test_counter_and_kernel_differences_are_exact(self):
        before = take_snapshot(kernel={"cache_hits": 10, "cache_misses": 4})
        metrics = MetricsRecorder()
        metrics.counter("model.points", 3)
        after = take_snapshot(metrics, kernel={"cache_hits": 25, "cache_misses": 4})
        delta = snapshot_delta(before, after)
        assert delta["counters"] == {"model.points": 3}
        assert delta["kernel_totals"] == {"cache_hits": 15}

    def test_zero_differences_are_omitted(self):
        snapshot = take_snapshot(kernel={"cache_hits": 7})
        delta = snapshot_delta(snapshot, snapshot)
        assert delta["counters"] == {}
        assert delta["kernel_totals"] == {}


class TestObsDeltaCapture:
    def test_captures_only_the_block(self):
        outer = MetricsRecorder()
        outer.counter("outer.before", 1)
        with use_recorder(outer):
            with ObsDeltaCapture() as capture:
                get_recorder().counter("inner.work", 2)
            # The outer recorder is restored and untouched by the block.
            assert get_recorder() is outer
        assert capture.delta["counters"] == {"inner.work": 2}
        assert capture.worker == os.getpid()
        assert "outer.before" not in capture.delta["counters"]

    def test_partial_delta_survives_an_exception(self):
        with pytest.raises(RuntimeError):
            with ObsDeltaCapture() as capture:
                get_recorder().counter("half.done", 1)
                raise RuntimeError("task failed")
        assert capture.delta["counters"] == {"half.done": 1}

    def test_restores_null_recorder(self):
        assert get_recorder() is NULL_RECORDER
        with ObsDeltaCapture():
            assert get_recorder() is not NULL_RECORDER
        assert get_recorder() is NULL_RECORDER


class TestMergeWorkerDelta:
    def test_plain_and_attributed_counters(self):
        parent = MetricsRecorder()
        delta = {
            "counters": {"model.points": 4},
            "gauges": {"exact.p": "1/3"},
            "spans": {},
            "kernel_totals": {},
        }
        merge_worker_delta(parent, delta, worker=4242, index=1, attempt=0)
        assert parent.counters["model.points"] == 4
        assert parent.counters["worker.4242.model.points"] == 4
        assert parent.gauges["worker.4242.exact.p"] == "1/3"
        assert parent.counters["event:worker_obs_delta"] == 1

    def test_kernel_totals_fold_into_process_counters(self):
        reset_kernel_totals()
        try:
            parent = MetricsRecorder()
            delta = {
                "counters": {},
                "gauges": {},
                "spans": {},
                "kernel_totals": {"cache_hits": 6, "cache_misses": 2},
            }
            merge_worker_delta(parent, delta, worker=7)
            merge_worker_delta(parent, delta, worker=8)
            totals = kernel_totals()
            assert totals["cache_hits"] == 12
            assert totals["cache_misses"] == 4
            assert parent.counters["worker.7.kernel.cache_hits"] == 6
            assert parent.counters["worker.8.kernel.cache_hits"] == 6
        finally:
            reset_kernel_totals()

    def test_merge_kernel_totals_ignores_unknown_keys(self):
        reset_kernel_totals()
        try:
            merge_kernel_totals({"cache_hits": 3, "from_the_future": 99})
            assert kernel_totals()["cache_hits"] == 3
            assert "from_the_future" not in kernel_totals()
        finally:
            reset_kernel_totals()
