"""Command-line interface: ``python -m tools.reprotop TRACE``.

Two input modes:

* **Trace mode** (positional ``TRACE``): tail a live ``repro-trace/1``
  JSONL, folding new records into a :class:`~tools.reprotop.monitor.SweepMonitor`
  every ``--interval`` seconds until the sweep reports itself finished.
* **Checkpoint mode** (``--checkpoint``): count completed rows in a
  sweep checkpoint, with ``--total`` for percent and completion.

``--once`` renders a single status and exits (the CI shape); ``--json``
swaps the tables for the status dict.  Per RL008 this module reads the
clock only through :mod:`repro.obs.clock` -- the raw ``time`` module is
used solely for ``sleep``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from repro.errors import TraceError
from repro.obs import read_trace
from repro.obs.clock import monotonic
from repro.obs.trace import TRACE_SCHEMA
from repro.reporting import json_ready

from .monitor import SweepMonitor, checkpoint_status, render_status

#: ANSI clear-screen + home, prefixed to each refresh in live table mode.
_CLEAR = "\x1b[2J\x1b[H"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprotop",
        description=(
            "Live monitor for guarantee sweeps: tails a repro-trace/1 "
            "JSONL (or counts a checkpoint's rows) and renders done/total, "
            "ETA, the retry histogram, per-worker kernel throughput and "
            "the cache hit rate."
        ),
    )
    parser.add_argument(
        "trace",
        nargs="?",
        help="path to a repro-trace/1 JSONL file to tail",
    )
    parser.add_argument(
        "--checkpoint",
        help="monitor a sweep checkpoint JSONL instead of a trace",
    )
    parser.add_argument(
        "--total",
        type=int,
        help="expected row count (enables percent and completion in --checkpoint mode)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh cadence in seconds (default: 2.0)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="render one status and exit instead of refreshing",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the status dict as JSON instead of tables",
    )
    return parser


class _TraceTail:
    """Incrementally read complete JSONL records from a growing trace.

    Keeps a byte offset and a partial-line buffer between polls, so a
    half-written final line (the writer mid-``write``, or a killed run's
    torn tail) is simply held back until it completes -- the same
    tolerance :func:`repro.obs.read_trace` applies at rest.  A *complete*
    line that fails to parse, or a bad header, is a schema violation.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._offset = 0
        self._partial = ""
        self._header_checked = False

    def poll(self) -> List[Dict]:
        with open(self.path, "r", encoding="utf-8") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
            self._offset = handle.tell()
        data = self._partial + chunk
        lines = data.split("\n")
        self._partial = lines.pop()
        records: List[Dict] = []
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                raise TraceError(
                    f"trace {self.path}: malformed complete record: {line[:80]!r}"
                )
            if not self._header_checked:
                if record.get("type") != "header" or record.get("schema") != TRACE_SCHEMA:
                    raise TraceError(
                        f"trace does not start with a {TRACE_SCHEMA!r} header: {record!r}"
                    )
                self._header_checked = True
            records.append(record)
        return records


def _emit(status: Dict, as_json: bool, clear: bool) -> None:
    try:
        if as_json:
            print(json.dumps(json_ready(status), indent=2, sort_keys=True))
        else:
            text = render_status(status)
            if clear:
                text = _CLEAR + text
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; treat as a clean stop.
        sys.stderr.close()
        raise SystemExit(0)


def _checkpoint_once(args: argparse.Namespace) -> Dict:
    done = checkpoint_status(args.checkpoint)
    monitor = SweepMonitor()
    status = monitor.status()
    status.update(done=done, total=args.total)
    if args.total:
        status["percent"] = round(100.0 * done / args.total, 1)
        status["finished"] = bool(done >= args.total and args.total > 0)
    return status


def _run_checkpoint(args: argparse.Namespace) -> int:
    while True:
        status = _checkpoint_once(args)
        _emit(status, args.json, clear=not args.once and not args.json)
        if args.once or status.get("finished"):
            return 0
        time.sleep(args.interval)


def _run_trace(args: argparse.Namespace) -> int:
    if args.once:
        monitor = SweepMonitor()
        monitor.feed_all(read_trace(args.trace))
        _emit(monitor.status(), args.json, clear=False)
        return 0
    monitor = SweepMonitor()
    tail = _TraceTail(args.trace)
    last_change = monotonic()
    while True:
        records = tail.poll()
        if records:
            monitor.feed_all(records)
            last_change = monotonic()
        status = monitor.status()
        status["stale_seconds"] = round(monotonic() - last_change, 1)
        _emit(status, args.json, clear=not args.json)
        if status.get("finished"):
            return 0
        time.sleep(args.interval)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.trace is None) == (args.checkpoint is None):
        parser.error("exactly one of TRACE or --checkpoint is required")
    if args.interval <= 0:
        parser.error("--interval must be positive")
    try:
        if args.checkpoint is not None:
            return _run_checkpoint(args)
        return _run_trace(args)
    except KeyboardInterrupt:
        # Ctrl-C is how an open-ended tail is *meant* to end.
        print()
        return 0
    except TraceError as error:
        print(f"reprotop: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"reprotop: cannot read input: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
