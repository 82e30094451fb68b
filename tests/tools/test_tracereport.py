"""The tracereport CLI: folding repro-trace/1 JSONL into summaries."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.obs import (  # noqa: E402
    TraceRecorder,
    read_audit_bundle,
    read_trace,
    use_recorder,
)
from repro.attack.sweep import guarantee_sweep, sweep_row_of, sweep_tasks  # noqa: E402
from repro.errors import TraceError  # noqa: E402
from repro.probability import reset_kernel_totals  # noqa: E402
from repro.robustness import (  # noqa: E402
    RetryPolicy,
    default_audit_path,
    robust_guarantee_sweep,
    run_tasks,
)
from repro.testing import FaultInjectingTask, FaultPlan  # noqa: E402

from tools.tracereport import render_report, summarize  # noqa: E402
from tools.tracereport.cli import main as cli_main  # noqa: E402


def _double(value):
    return value * 2


def make_trace(path):
    """Record a sweep plus a chaos engine run into ``path``."""
    reset_kernel_totals()
    plan = FaultPlan.from_seed(seed=3, task_count=5, kinds=("raise",), rate=0.6)
    recorder = TraceRecorder(path)
    with use_recorder(recorder):
        guarantee_sweep([1, 2], [Fraction(1, 2)])
        run_tasks(
            FaultInjectingTask(_double, plan),
            list(range(5)),
            max_workers=1,
            policy=RetryPolicy(max_attempts=4, base_delay=0.0),
        )
    recorder.close()
    return path


class TestSummarize:
    def test_folds_spans_counters_and_cache(self, tmp_path):
        records = read_trace(make_trace(tmp_path / "t.jsonl"))
        summary = summarize(records)
        assert summary["spans"]["guarantee_sweep"]["count"] == 1
        assert summary["spans"]["sweep_row"]["count"] == 6
        assert summary["counters"]["engine.tasks_ok"] == 5
        # hit rate is exact, from the last cache_stats event
        rate = summary["cache"]["hit_rate"]
        assert isinstance(rate, Fraction)
        assert 0 <= rate <= 1

    def test_spans_sorted_by_total_seconds(self, tmp_path):
        records = read_trace(make_trace(tmp_path / "t.jsonl"))
        totals = [
            stats["total_seconds"]
            for stats in summarize(records)["spans"].values()
        ]
        assert totals == sorted(totals, reverse=True)

    def test_retry_histogram_counts_attempts_per_task(self, tmp_path):
        records = read_trace(make_trace(tmp_path / "t.jsonl"))
        retries = summarize(records)["retries"]
        assert retries["tasks"] == 5
        assert sum(retries["attempts_per_task"].values()) == 5
        outcomes = retries["outcomes"]
        assert outcomes["ok"] == 5
        assert sum(outcomes.values()) == sum(
            int(attempts) * tasks
            for attempts, tasks in retries["attempts_per_task"].items()
        )

    def test_gfp_section_from_events(self):
        records = [
            {"type": "header", "schema": "repro-trace/1"},
            {"type": "event", "kind": "gfp", "fields": {"iterations": 3}},
            {"type": "event", "kind": "gfp", "fields": {"iterations": 1}},
        ]
        gfp = summarize(records)["gfp"]
        assert gfp == {"fixpoints": 2, "total_iterations": 4, "max_iterations": 3}

    def test_empty_trace_summary(self):
        summary = summarize([{"type": "header", "schema": "repro-trace/1"}])
        assert summary["counters"] == {}
        assert summary["spans"] == {}
        assert "cache" not in summary
        assert "no spans" in render_report(summary)


def traced_sweep_summary(path, max_workers):
    """Fold the trace of a 16-row sweep run on ``max_workers`` workers."""
    reset_kernel_totals()
    tasks = sweep_tasks([1, 2, 3, 4], [Fraction(1, 2), Fraction(1, 3)])
    with TraceRecorder(path) as recorder, use_recorder(recorder):
        run_tasks(sweep_row_of, tasks, max_workers=max_workers)
    records = read_trace(path)
    return records, summarize(records)


class TestPoolHitRate:
    def test_pool_trace_folds_to_the_serial_hit_rate(self, tmp_path):
        records, pool = traced_sweep_summary(tmp_path / "pool.jsonl", 2)
        if pool["counters"].get("engine.pool_fallbacks"):
            pytest.skip("process pools unavailable; the serial path ran")
        # The pool's parent sees no cache_stats event: its cache section
        # is the kernel totals the workers shipped.
        assert not [r for r in records if r.get("kind") == "cache_stats"]
        _records, serial = traced_sweep_summary(tmp_path / "serial.jsonl", 1)
        for key in ("cache_hits", "cache_misses", "hit_rate"):
            assert pool["cache"][key] == serial["cache"][key], key
        assert serial["cache"]["cache_hits"] and serial["cache"]["cache_misses"]


class TestRenderReport:
    def test_report_names_the_headline_sections(self, tmp_path):
        records = read_trace(make_trace(tmp_path / "t.jsonl"))
        text = render_report(summarize(records))
        assert "Top spans (by total seconds)" in text
        assert "Measure-kernel cache" in text
        assert "Retry histogram (attempts per task)" in text
        assert "hit rate" in text


class TestCli:
    def test_plain_output_exit_zero(self, tmp_path, capsys):
        trace = make_trace(tmp_path / "t.jsonl")
        assert cli_main([str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Top spans" in out
        assert "engine.tasks_ok" in out

    def test_json_output_round_trips(self, tmp_path, capsys):
        trace = make_trace(tmp_path / "t.jsonl")
        assert cli_main(["--json", str(trace)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["engine.tasks_ok"] == 5
        # exact Fraction rendered via json_ready as "p/q"
        assert "/" in payload["cache"]["hit_rate"] or payload["cache"][
            "hit_rate"
        ] in ("0", "1")

    def test_invalid_trace_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "counter"}\n{"oops": 1}\n', encoding="utf-8")
        assert cli_main([str(bad)]) == 2
        assert "tracereport:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert cli_main([str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestMalformedRecords:
    def test_summarize_raises_trace_error_naming_the_position(self, malformed_trace):
        records = read_trace(malformed_trace)
        with pytest.raises(TraceError, match=r"record\[1\]"):
            summarize(records)

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["plain", "json"])
    def test_cli_exits_two(self, malformed_trace, capsys, mode):
        assert cli_main(mode + [str(malformed_trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tracereport: record[1]")


class TestEmptyTrace:
    """Pins for the zero-event edge: a trace with no records at all.

    A zero-byte file is *not* a valid trace (no header record), so both
    output modes must exit 2 with a diagnostic on stderr and print
    nothing to stdout -- never crash, never emit partial JSON.  A
    header-only trace (a run that recorded nothing) is valid and exits 0.
    """

    def test_zero_byte_file_exits_two_plain(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        assert cli_main([str(empty)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trace is empty" in captured.err

    def test_zero_byte_file_exits_two_json(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        assert cli_main(["--json", str(empty)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trace is empty" in captured.err

    def test_whitespace_only_file_exits_two(self, tmp_path, capsys):
        blank = tmp_path / "blank.jsonl"
        blank.write_text("\n\n  \n", encoding="utf-8")
        assert cli_main([str(blank)]) == 2
        assert "trace is empty" in capsys.readouterr().err

    def test_header_only_trace_exits_zero_both_modes(self, tmp_path, capsys):
        from repro.obs import TraceRecorder

        path = tmp_path / "header-only.jsonl"
        TraceRecorder(path).close()
        assert cli_main([str(path)]) == 0
        assert "no spans" in capsys.readouterr().out
        assert cli_main(["--json", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"] == {}
        assert payload["spans"] == {}


def make_audit_bundle(tmp_path):
    """The audited ``[1, 2] x [1/2]`` sweep; returns its bundle path."""
    checkpoint = tmp_path / "sweep.jsonl"
    robust_guarantee_sweep(
        [1, 2], [Fraction(1, 2)], max_workers=1, checkpoint_path=checkpoint, audit=True
    )
    return Path(default_audit_path(checkpoint))


class TestAuditSection:
    def test_audit_flag_folds_the_bundle(self, tmp_path, capsys):
        trace = make_trace(tmp_path / "t.jsonl")
        bundle = make_audit_bundle(tmp_path)
        assert cli_main(["--json", str(trace), "--audit", str(bundle)]) == 0
        audit = json.loads(capsys.readouterr().out)["audit"]
        assert audit["leaves"] == 6
        assert audit["distinct_indexes"] == 6
        assert audit["nodes"] == 5
        assert audit["tree_nodes"] == 6
        assert audit["dedup_ratio"] == "6/5"
        assert audit["protocols"] == {"CA1": 2, "CA1-adaptive": 2, "CA2": 2}
        assert audit["root"] == read_audit_bundle(bundle).root

    def test_audit_tables_rendered(self, tmp_path, capsys):
        trace = make_trace(tmp_path / "t.jsonl")
        bundle = make_audit_bundle(tmp_path)
        assert cli_main([str(trace), "--audit", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "== Audit bundle ==" in out
        assert "== Audit leaves by protocol ==" in out
        assert "CA1-adaptive" in out
        assert f"chain root: {read_audit_bundle(bundle).root}" in out

    def test_cyclic_node_reference_exits_two(self, tmp_path, capsys):
        trace = make_trace(tmp_path / "t.jsonl")
        bundle = make_audit_bundle(tmp_path)
        lines = bundle.read_text().splitlines()
        for position, line in enumerate(lines):
            record = json.loads(line)
            if record["type"] == "node":
                record["node"]["children"] = [record["ref"]]
                lines[position] = json.dumps(record, sort_keys=True)
                break
        bundle.write_text("\n".join(lines) + "\n")
        assert cli_main([str(trace), "--audit", str(bundle)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tracereport:")
        assert "not streamed before it" in captured.err
