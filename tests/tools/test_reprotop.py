"""The reprotop monitor: trace folding, checkpoint counting, CLI modes."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.attack.sweep import sweep_row_of, sweep_tasks  # noqa: E402
from repro.errors import TraceError  # noqa: E402
from repro.obs import TraceRecorder, read_trace, use_recorder  # noqa: E402
from repro.probability import reset_kernel_totals  # noqa: E402
from repro.robustness import run_tasks  # noqa: E402

from tools.reprotop import SweepMonitor, checkpoint_status, render_status  # noqa: E402
from tools.reprotop.cli import _TraceTail, main as cli_main  # noqa: E402

MESSENGERS = [1, 2]
LOSSES = [Fraction(1, 2)]


def make_trace(tmp_path, max_workers=1):
    """One traced sweep; returns (trace path, task count)."""
    reset_kernel_totals()
    tasks = sweep_tasks(MESSENGERS, LOSSES)
    trace_path = tmp_path / "trace.jsonl"
    trace = TraceRecorder(trace_path)
    with use_recorder(trace):
        run_tasks(
            sweep_row_of,
            tasks,
            max_workers=max_workers,
            progress_every=1,
            sleep=lambda _seconds: None,
        )
    trace.close()
    return trace_path, len(tasks)


class TestSweepMonitor:
    def test_folds_progress_attempts_and_cache(self, tmp_path):
        trace_path, total = make_trace(tmp_path)
        monitor = SweepMonitor()
        monitor.feed_all(read_trace(trace_path))
        status = monitor.status()
        assert status["done"] == total
        assert status["total"] == total
        assert status["percent"] == 100.0
        assert status["retries"] == 0
        assert status["finished"] is True
        assert status["retry_histogram"] == {1: total}
        assert status["outcomes"] == {"ok": total}
        # Serial run: cache stats come from the cache_stats events.
        assert status["cache"]["hits"] + status["cache"]["misses"] > 0
        assert 0 <= status["cache"]["hit_rate"] <= 1

    def test_empty_monitor_reports_unknowns(self):
        status = SweepMonitor().status()
        assert status["done"] is None
        assert status["total"] is None
        assert status["finished"] is False
        assert status["cache"]["hit_rate"] is None

    def test_render_mentions_every_section(self, tmp_path):
        trace_path, total = make_trace(tmp_path)
        monitor = SweepMonitor()
        monitor.feed_all(read_trace(trace_path))
        text = render_status(monitor.status())
        assert "Sweep progress" in text
        assert "Measure-kernel cache" in text
        assert "sweep complete" in text


class TestCheckpointStatus:
    def test_counts_rows(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        rows = [{"index": i, "row": {"p": "1/2"}} for i in range(4)]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert checkpoint_status(str(path)) == 4

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        path.write_text(
            json.dumps({"index": 0}) + "\n" + json.dumps({"index": 1})[:-3]
        )
        assert checkpoint_status(str(path)) == 1

    def test_garbage_before_the_end_is_fatal(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        path.write_text("{torn\n" + json.dumps({"index": 0}) + "\n")
        with pytest.raises(TraceError):
            checkpoint_status(str(path))


class TestTraceTail:
    def test_holds_back_partial_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        header = json.dumps({"type": "header", "schema": "repro-trace/1"})
        counter = json.dumps({"type": "counter", "name": "a", "value": 1})
        path.write_text(header + "\n" + counter[:5])
        tail = _TraceTail(str(path))
        assert [r["type"] for r in tail.poll()] == ["header"]
        # Completing the line surfaces the record on the next poll.
        with open(path, "a") as handle:
            handle.write(counter[5:] + "\n")
        assert [r["name"] for r in tail.poll()] == ["a"]
        assert tail.poll() == []

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "counter"}\n')
        with pytest.raises(TraceError):
            _TraceTail(str(path)).poll()


class TestCli:
    def test_once_json_on_trace(self, tmp_path, capsys):
        trace_path, total = make_trace(tmp_path)
        assert cli_main(["--once", "--json", str(trace_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["done"] == total
        assert payload["finished"] is True

    def test_checkpoint_with_total(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.jsonl"
        ckpt.write_text("".join(json.dumps({"index": i}) + "\n" for i in range(3)))
        code = cli_main(
            ["--once", "--json", "--checkpoint", str(ckpt), "--total", "4"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["done"] == 3
        assert payload["total"] == 4
        assert payload["percent"] == 75.0
        assert payload["finished"] is False

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert cli_main(["--once", str(tmp_path / "nope.jsonl")]) == 2
        assert "reprotop" in capsys.readouterr().err

    def test_wrong_schema_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "header", "schema": "repro-metrics/1"}\n')
        assert cli_main(["--once", str(path)]) == 2
        assert "repro-trace/1" in capsys.readouterr().err

    def test_requires_exactly_one_input(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--once"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--once", "t.jsonl", "--checkpoint", "c.jsonl"])
        assert excinfo.value.code == 2
