"""MetricsRecorder aggregation: counters and hierarchical spans."""

import json

from repro.obs import (
    MetricsRecorder,
    MultiRecorder,
    NullRecorder,
    Recorder,
    SpanStats,
    TraceRecorder,
)
from repro.reporting import json_ready


class TestCountersAndGauges:
    def test_counters_accumulate(self):
        recorder = MetricsRecorder()
        recorder.counter("hits")
        recorder.counter("hits", 4)
        recorder.counter("misses")
        assert recorder.counters == {"hits": 5, "misses": 1}

    def test_events_bump_a_kind_counter(self):
        recorder = MetricsRecorder()
        recorder.event("gfp", iterations=3)
        recorder.event("gfp", iterations=1)
        recorder.event("backend_switch", backend="naive")
        assert recorder.counters["event:gfp"] == 2
        assert recorder.counters["event:backend_switch"] == 1

    def test_no_gauge_channel(self):
        # Counters, events and spans are the whole protocol: nothing in
        # the library sets a gauge, so no recorder offers one.
        for recorder_class in (
            Recorder, NullRecorder, MultiRecorder, MetricsRecorder, TraceRecorder
        ):
            assert not hasattr(recorder_class, "gauge"), recorder_class
        assert set(MetricsRecorder().snapshot()) == {"counters", "spans"}


class TestSpans:
    def test_nested_spans_join_paths(self):
        recorder = MetricsRecorder()
        with recorder.span("sweep"):
            with recorder.span("row"):
                pass
            with recorder.span("row"):
                pass
        assert recorder.spans["sweep"].count == 1
        assert recorder.spans["sweep/row"].count == 2
        assert "row" not in recorder.spans

    def test_span_stats_track_min_max_total(self):
        stats = SpanStats()
        for seconds in (3.0, 1.0, 2.0):
            stats.add(seconds)
        assert stats.count == 3
        assert stats.total_seconds == 6.0
        assert stats.min_seconds == 1.0
        assert stats.max_seconds == 3.0

    def test_span_durations_are_nonnegative_and_nested_totals_ordered(self):
        recorder = MetricsRecorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                sum(range(1000))
        outer = recorder.spans["outer"]
        inner = recorder.spans["outer/inner"]
        assert inner.total_seconds >= 0.0
        assert outer.total_seconds >= inner.total_seconds


class TestSnapshot:
    def test_snapshot_is_json_ready(self):
        recorder = MetricsRecorder()
        recorder.counter("hits", 3)
        with recorder.span("work"):
            pass
        text = json.dumps(json_ready(recorder.snapshot()))
        decoded = json.loads(text)
        assert decoded["counters"] == {"hits": 3}
        assert decoded["spans"]["work"]["count"] == 1

    def test_snapshot_sorts_keys(self):
        recorder = MetricsRecorder()
        recorder.counter("zebra")
        recorder.counter("aard")
        assert list(recorder.snapshot()["counters"]) == ["aard", "zebra"]
