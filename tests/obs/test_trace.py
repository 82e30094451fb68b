"""The ``repro-trace/1`` JSONL schema: emission, parsing, exactness."""

import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.obs import TRACE_SCHEMA, TraceRecorder, read_trace
from repro.reporting import fraction_from_json


def record_into_buffer(record_with):
    """Run ``record_with(recorder)`` against a fresh in-memory trace."""
    buffer = io.StringIO()
    recorder = TraceRecorder(buffer)
    record_with(recorder)
    recorder.close()
    buffer.seek(0)
    return read_trace(buffer)


class TestEmission:
    def test_header_is_first_and_carries_schema(self):
        records = record_into_buffer(lambda r: None)
        assert records[0]["type"] == "header"
        assert records[0]["schema"] == TRACE_SCHEMA
        assert records[0]["seq"] == 0

    def test_seq_is_monotonic_and_ts_nondecreasing(self):
        def workload(recorder):
            recorder.counter("a")
            recorder.event("e", x=1)
            with recorder.span("s"):
                recorder.counter("b")

        records = record_into_buffer(workload)
        sequences = [record["seq"] for record in records]
        assert sequences == list(range(len(records)))
        stamps = [record["ts"] for record in records]
        assert stamps == sorted(stamps)

    def test_span_records_pair_and_carry_parent(self):
        def workload(recorder):
            with recorder.span("outer", depth=0):
                with recorder.span("inner", depth=1):
                    pass

        records = record_into_buffer(workload)
        starts = {r["name"]: r for r in records if r["type"] == "span-start"}
        ends = {r["name"]: r for r in records if r["type"] == "span-end"}
        assert starts["outer"]["parent"] is None
        assert starts["inner"]["parent"] == starts["outer"]["span"]
        for name in ("outer", "inner"):
            assert ends[name]["span"] == starts[name]["span"]
            assert ends[name]["seconds"] >= 0.0
        assert starts["inner"]["fields"] == {"depth": 1}

    def test_sibling_spans_share_a_parent(self):
        def workload(recorder):
            with recorder.span("sweep"):
                with recorder.span("row"):
                    pass
                with recorder.span("row"):
                    pass

        records = record_into_buffer(workload)
        starts = [r for r in records if r["type"] == "span-start"]
        sweep = next(r for r in starts if r["name"] == "sweep")
        rows = [r for r in starts if r["name"] == "row"]
        assert [r["parent"] for r in rows] == [sweep["span"], sweep["span"]]
        assert rows[0]["span"] != rows[1]["span"]

    def test_fractions_stay_exact_strings(self):
        records = record_into_buffer(
            lambda r: r.event("cache", rate=Fraction(99, 256))
        )
        event = next(r for r in records if r["type"] == "event")
        assert event["fields"]["rate"] == "99/256"
        assert fraction_from_json(event["fields"]["rate"]) == Fraction(99, 256)

    def test_counter_records(self):
        records = record_into_buffer(lambda recorder: recorder.counter("hits", 3))
        counter = next(r for r in records if r["type"] == "counter")
        assert counter["name"] == "hits" and counter["value"] == 3

    def test_records_written_counts_header(self):
        buffer = io.StringIO()
        recorder = TraceRecorder(buffer)
        recorder.counter("x")
        assert recorder.records_written == 2

    def test_path_destination_is_owned_and_closed(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(path)
        recorder.counter("x")
        recorder.close()
        records = read_trace(path)
        assert [r["type"] for r in records] == ["header", "counter"]


class TestHypothesisRoundTrip:
    @given(
        fields=st.dictionaries(
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                min_size=1,
                max_size=12,
            ),
            st.one_of(
                st.fractions(),
                st.integers(min_value=-(10**12), max_value=10**12),
                st.booleans(),
                st.none(),
            ),
            max_size=5,
        )
    )
    @example(fields={"self": None, "kind": 1, "name": True})
    def test_event_fields_round_trip_through_jsonl(self, fields):
        buffer = io.StringIO()
        recorder = TraceRecorder(buffer)
        recorder.event("probe", **fields)
        recorder.close()
        buffer.seek(0)
        records = read_trace(buffer)
        decoded = next(r for r in records if r["type"] == "event")["fields"]
        assert set(decoded) == set(fields)
        for key, value in fields.items():
            if isinstance(value, Fraction):
                assert fraction_from_json(decoded[key]) == value
            else:
                assert decoded[key] == value


class TestReadTrace:
    def _valid_lines(self):
        buffer = io.StringIO()
        recorder = TraceRecorder(buffer)
        recorder.counter("a")
        recorder.counter("b")
        recorder.close()
        return buffer.getvalue().splitlines()

    def test_truncated_final_line_is_dropped(self):
        lines = self._valid_lines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        records = read_trace(lines)
        assert len(records) == 2  # header + first counter

    def test_garbage_before_the_end_raises(self):
        lines = self._valid_lines()
        lines[1] = "{not json"
        with pytest.raises(TraceError, match="not the final line"):
            read_trace(lines)

    def test_non_object_line_raises(self):
        lines = self._valid_lines()
        lines[1] = "[1, 2, 3]"
        with pytest.raises(TraceError, match="not a JSON object"):
            read_trace(lines)

    def test_missing_header_raises_in_strict_mode(self):
        lines = [json.dumps({"type": "counter", "name": "x", "value": 1})]
        with pytest.raises(TraceError, match="header"):
            read_trace(lines)

    def test_wrong_schema_raises(self):
        lines = [json.dumps({"type": "header", "schema": "repro-trace/999"})]
        with pytest.raises(TraceError, match="header"):
            read_trace(lines)

    def test_empty_trace_raises(self):
        with pytest.raises(TraceError, match="empty"):
            read_trace([])

    def test_blank_lines_are_skipped(self):
        lines = self._valid_lines()
        lines.insert(1, "")
        assert len(read_trace(lines)) == 3


class TestHalfWrittenTail:
    """A killed writer truncates mid-record; the reader must tolerate it.

    The chaos harness kills workers at arbitrary moments, so a trace's
    final line can stop at *any* byte.  Whatever the cut point, reading
    the file must either drop exactly the half-written final record or
    raise TraceError -- never crash with anything else, never corrupt an
    earlier record.
    """

    def _trace_bytes(self):
        buffer = io.StringIO()
        recorder = TraceRecorder(buffer)
        recorder.counter("alpha", 1)
        recorder.event("cache", rate=Fraction(99, 256))
        with recorder.span("work", phase="final"):
            pass
        recorder.close()
        return buffer.getvalue().encode("utf-8")

    def test_every_byte_boundary_of_the_final_record(self):
        data = self._trace_bytes()
        full_records = read_trace(data.decode("utf-8").splitlines())
        last_line_start = data.rstrip(b"\n").rfind(b"\n") + 1
        # cut at every byte boundary inside the final record (including
        # cutting it away entirely and keeping it whole)
        for cut in range(last_line_start, len(data) + 1):
            truncated = data[:cut].decode("utf-8", errors="strict")
            records = read_trace(truncated.splitlines())
            # a cut that leaves the final record complete JSON (e.g.
            # only the trailing newline is missing) keeps it; any other
            # cut drops exactly the half-written record
            tail = data[last_line_start:cut].decode("utf-8").strip()
            try:
                json.loads(tail)
                complete = bool(tail)
            except json.JSONDecodeError:
                complete = False
            if complete:
                assert records == full_records
            else:
                assert records == full_records[:-1]

    @given(cut=st.integers(min_value=0, max_value=10_000))
    def test_any_prefix_parses_or_raises_trace_error(self, cut):
        data = self._trace_bytes()
        truncated = data[: min(cut, len(data))].decode("utf-8")
        lines = truncated.splitlines()
        try:
            records = read_trace(lines)
        except TraceError:
            # acceptable only when the header itself was cut
            assert truncated.count("\n") == 0
            return
        # whole records survive byte-for-byte: every parsed record is a
        # prefix of the full record list
        full_records = read_trace(data.decode("utf-8").splitlines())
        assert records == full_records[: len(records)]

    def test_truncation_never_reorders_or_alters_fractions(self):
        data = self._trace_bytes()
        # cut right after the exact-fraction event line
        lines = data.decode("utf-8").splitlines()
        event_line = next(i for i, l in enumerate(lines) if '"cache"' in l)
        kept = "\n".join(lines[: event_line + 1]) + "\n" + lines[event_line + 1][:5]
        records = read_trace(kept.splitlines())
        event = next(r for r in records if r["type"] == "event")
        assert fraction_from_json(event["fields"]["rate"]) == Fraction(99, 256)
