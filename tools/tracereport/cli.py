"""Command-line interface: ``python -m tools.tracereport TRACE``."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import AuditError, TraceError
from repro.obs import read_audit_bundle, read_trace
from repro.reporting import json_ready

from .report import render_audit, render_report, summarize, summarize_audit


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracereport",
        description=(
            "Summarise a repro-trace/1 JSONL trace: top timing spans, "
            "counters, measure-kernel cache hit rate, gfp iteration "
            "counts, and the sweep engine's retry histogram."
        ),
    )
    parser.add_argument("trace", help="path to a repro-trace/1 JSONL file")
    parser.add_argument(
        "--audit",
        help=(
            "repro-audit/1 bundle to fold in as an audit section "
            "(chain totals plus the hash-consing dedup ratio)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the summary as JSON instead of plain-text tables",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        summary = summarize(read_trace(args.trace))
    except TraceError as error:
        print(f"tracereport: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"tracereport: cannot read {args.trace!r}: {error}", file=sys.stderr)
        return 2
    if args.audit:
        try:
            summary["audit"] = summarize_audit(read_audit_bundle(args.audit))
        except AuditError as error:
            print(f"tracereport: {error}", file=sys.stderr)
            return 2
        except OSError as error:
            print(
                f"tracereport: cannot read {args.audit!r}: {error}", file=sys.stderr
            )
            return 2
    try:
        if args.json:
            print(json.dumps(json_ready(summary), indent=2))
        else:
            report = render_report(summary)
            if "audit" in summary:
                report += "\n\n" + render_audit(summary["audit"])
            print(report)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; the summary it asked
        # for was delivered, so this is not an error.
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
