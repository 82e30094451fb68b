"""The recorder protocol: null default, registry, fan-out, observe-only."""

import pytest

from repro.obs import (
    MetricsRecorder,
    MultiRecorder,
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    get_recorder,
    set_recorder,
    use_recorder,
)


class TestDefaultRecorder:
    def test_default_is_the_null_singleton(self):
        # The identity pin matters: instrumented hot paths rely on the
        # uninstrumented default costing nothing but a no-op method call.
        assert get_recorder() is NULL_RECORDER
        assert isinstance(NULL_RECORDER, NullRecorder)

    def test_null_recorder_methods_return_nothing(self):
        recorder = NullRecorder()
        assert recorder.counter("x") is None
        assert recorder.counter("x", 5) is None
        assert recorder.event("e", detail="d") is None
        assert recorder.close() is None

    def test_null_span_is_a_working_context_manager(self):
        with NullRecorder().span("anything", extra=1):
            pass

    def test_base_recorder_is_a_context_manager(self):
        closed = []

        class Closing(Recorder):
            def close(self):
                closed.append(True)

        with Closing() as recorder:
            assert isinstance(recorder, Closing)
        assert closed == [True]


class TestRegistry:
    def test_set_recorder_returns_previous(self):
        first = MetricsRecorder()
        try:
            assert set_recorder(first) is NULL_RECORDER
            assert get_recorder() is first
            assert set_recorder(None) is first
            assert get_recorder() is NULL_RECORDER
        finally:
            set_recorder(None)

    def test_use_recorder_scopes_and_restores(self):
        recorder = MetricsRecorder()
        with use_recorder(recorder) as installed:
            assert installed is recorder
            assert get_recorder() is recorder
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_restores_on_exception(self):
        recorder = MetricsRecorder()
        with pytest.raises(RuntimeError):
            with use_recorder(recorder):
                raise RuntimeError("boom")
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_nests(self):
        outer, inner = MetricsRecorder(), MetricsRecorder()
        with use_recorder(outer):
            with use_recorder(inner):
                assert get_recorder() is inner
            assert get_recorder() is outer
        assert get_recorder() is NULL_RECORDER


class TestMultiRecorder:
    def test_fans_out_counters_and_events(self):
        children = [MetricsRecorder(), MetricsRecorder()]
        multi = MultiRecorder(children)
        multi.counter("hits", 2)
        multi.event("switch", backend="naive")
        for child in children:
            assert child.counters["hits"] == 2
            assert child.counters["event:switch"] == 1

    def test_fans_out_spans(self):
        children = [MetricsRecorder(), MetricsRecorder()]
        multi = MultiRecorder(children)
        with multi.span("work"):
            pass
        for child in children:
            assert child.spans["work"].count == 1

    def test_close_closes_every_child(self):
        closed = []

        class Closing(Recorder):
            def close(self):
                closed.append(id(self))

        children = [Closing(), Closing()]
        MultiRecorder(children).close()
        assert closed == [id(children[0]), id(children[1])]
