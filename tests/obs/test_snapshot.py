"""Cross-process telemetry: the shipped delta, worker capture and merge."""

import os

import pytest

from repro.obs import (
    MetricsRecorder,
    MultiRecorder,
    NULL_RECORDER,
    ObsDeltaCapture,
    Recorder,
    get_recorder,
    merge_worker_delta,
    use_recorder,
)
from repro.probability import IntervalCache, kernel_totals, reset_kernel_totals
from repro.probability.bitset import merge_kernel_totals


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


class TestTakeSnapshot:
    def test_shape_and_derived_sections(self):
        # Exactly three sections ship: the fresh recorder's counters and
        # span stats, and the kernel totals' nonzero differences.  No
        # derived sections ride along.
        cache = IntervalCache()
        cache.put(1, "one")
        with ObsDeltaCapture() as capture:
            recorder = get_recorder()
            recorder.counter("model.points", 12)
            recorder.counter("model.gfp_fixpoints", 2)
            recorder.counter("model.gfp_iterations", 7)
            with recorder.span("build"):
                for mask in (1, 1, 1, 2):
                    cache.get(mask)
        assert set(capture.delta) == {"counters", "spans", "kernel_totals"}
        assert capture.delta["counters"]["model.points"] == 12
        assert capture.delta["counters"]["model.gfp_iterations"] == 7
        assert capture.delta["spans"]["build"]["count"] == 1
        assert capture.delta["kernel_totals"] == {"cache_hits": 3, "cache_misses": 1}


class TestSnapshotDelta:
    def test_counter_and_kernel_differences_are_exact(self):
        merge_kernel_totals({"cache_hits": 10, "cache_misses": 4})
        cache = IntervalCache()
        cache.put(1, "one")
        with ObsDeltaCapture() as capture:
            get_recorder().counter("model.points", 3)
            for _ in range(15):
                cache.get(1)
        assert capture.delta["counters"] == {"model.points": 3}
        assert capture.delta["kernel_totals"] == {"cache_hits": 15}

    def test_zero_differences_are_omitted(self):
        merge_kernel_totals({"cache_hits": 7})
        with ObsDeltaCapture() as capture:
            pass
        assert capture.delta["counters"] == {}
        assert capture.delta["kernel_totals"] == {}


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
        # Each counter lands once under its own name; the pid that
        # computed it is attributed on the one worker_obs_delta event.
        parent = MetricsRecorder()
        log = _EventLog()
        delta = {
            "counters": {"model.points": 4},
            "spans": {},
            "kernel_totals": {},
        }
        merge_worker_delta(
            MultiRecorder([parent, log]), delta, worker=4242, index=1, attempt=0
        )
        assert parent.counters == {
            "model.points": 4,
            "event:worker_obs_delta": 1,
        }
        [(kind, fields)] = log.events
        assert kind == "worker_obs_delta"
        assert fields["worker"] == 4242
        assert fields["counters"] == {"model.points": 4}
        assert (fields["index"], fields["attempt"]) == (1, 0)

    def test_kernel_totals_fold_into_process_counters(self):
        parent = MetricsRecorder()
        log = _EventLog()
        delta = {
            "counters": {},
            "spans": {},
            "kernel_totals": {"cache_hits": 6, "cache_misses": 2},
        }
        recorder = MultiRecorder([parent, log])
        merge_worker_delta(recorder, delta, worker=7)
        merge_worker_delta(recorder, delta, worker=8)
        totals = kernel_totals()
        assert totals["cache_hits"] == 12
        assert totals["cache_misses"] == 4
        assert parent.counters == {"event:worker_obs_delta": 2}
        assert [
            (fields["worker"], fields["kernel_totals"]) for _kind, fields in log.events
        ] == [(7, delta["kernel_totals"]), (8, delta["kernel_totals"])]

    def test_merge_kernel_totals_ignores_unknown_keys(self):
        merge_kernel_totals({"cache_hits": 3, "from_the_future": 99})
        assert kernel_totals()["cache_hits"] == 3
        assert "from_the_future" not in kernel_totals()
