"""Command-line interface: ``python -m tools.reproflow [paths...]``."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .engine import analyze_paths
from .report import build_report
from .rules.base import FLOW_REGISTRY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reproflow",
        description=(
            "Whole-program dataflow analyzer for the Halpern & Tuttle "
            "reproduction: call-graph effect inference guarding task-payload "
            "determinism (RL009), exactness taint (RL010), process-pool "
            "pickle safety (RL011), and docstring effect contracts (RL012)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to analyze (e.g. src/repro)"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit violations as a JSON array instead of path:line:col lines",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        help="write the full repro-flow/1 report artifact (callgraph, effect "
        "summaries, payload closure) to FILE; '-' for stdout",
    )
    parser.add_argument(
        "--explain",
        metavar="RL00X",
        help="print the rationale for one flow rule and exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered flow rule ids and titles and exit",
    )
    parser.add_argument(
        "--report-stale-suppressions",
        action="store_true",
        help=(
            "also report RL009-RL012 'disable=' comments that matched no "
            "violation in this run (exit 1 when any are found)"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.explain:
        try:
            rule = FLOW_REGISTRY.get_rule(args.explain.strip().upper())
        except KeyError as exc:
            print(str(exc.args[0]), file=sys.stderr)
            return 2
        print(f"{rule.rule_id}: {rule.title}")
        print()
        print(rule.rationale)
        return 0

    if args.list_rules:
        for rule in FLOW_REGISTRY.all_rules():
            print(f"{rule.rule_id}  {rule.title}")
        return 0

    if not args.paths:
        parser.error("no paths given (try: python -m tools.reproflow src/repro)")

    report = analyze_paths(args.paths)
    violations = report.violations

    for warning in report.unknown_suppressions:
        print(f"reproflow: warning: {warning.render()}", file=sys.stderr)

    stale = report.stale_suppressions if args.report_stale_suppressions else []

    if args.report:
        artifact = json.dumps(build_report(report), indent=2, sort_keys=True)
        if args.report == "-":
            print(artifact)
        else:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(artifact)
                handle.write("\n")

    if args.json:
        if args.report_stale_suppressions:
            print(
                json.dumps(
                    {
                        "violations": [v.as_dict() for v in violations],
                        "stale_suppressions": [
                            {
                                "path": w.path,
                                "line": w.line,
                                "rule": w.rule_id,
                                "message": w.message,
                            }
                            for w in stale
                        ],
                    },
                    indent=2,
                )
            )
        else:
            print(json.dumps([v.as_dict() for v in violations], indent=2))
    else:
        for violation in violations:
            print(violation.render())
        for warning in stale:
            print(warning.render())
        if violations:
            print(
                f"reproflow: {len(violations)} violation(s) "
                f"(suppress a line with '# reproflow: disable=<RULE>')",
                file=sys.stderr,
            )
        if stale:
            print(
                f"reproflow: {len(stale)} stale suppression(s)", file=sys.stderr
            )
    return 1 if violations or stale else 0


if __name__ == "__main__":
    sys.exit(main())
