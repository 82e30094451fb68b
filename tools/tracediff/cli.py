"""Command-line interface: ``python -m tools.tracediff A B``."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import AuditError, ProvenanceError, TraceError
from repro.reporting import json_ready

from .bisect import bisect_artifacts, render_bisect
from .diff import diff_artifacts, render_diff


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracediff",
        description=(
            "Diff two observability artifacts (repro-trace/1 JSONL, "
            "repro-explain/1 derivation, or repro-audit/1 bundle; "
            "auto-detected): counter deltas, cache hit-rate shift, "
            "per-span timing ratios, and the first diverging record or "
            "derivation node.  Timing drift is informational; only "
            "content divergence counts as divergence."
        ),
    )
    parser.add_argument("a", help="baseline artifact (A)")
    parser.add_argument("b", help="candidate artifact (B)")
    parser.add_argument(
        "--bisect",
        action="store_true",
        help=(
            "binary-search to the first diverging record or derivation "
            "node (hash chains for record streams and audit bundles, "
            "Merkle fingerprints for a bundle's derivation nodes) and "
            "print a minimal reproduction pointer instead of the full diff"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the diff summary as JSON instead of plain text",
    )
    parser.add_argument(
        "--fail-on-divergence",
        action="store_true",
        help="exit 1 when the artifacts' content diverges (default: exit 0)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.bisect:
            summary = bisect_artifacts(args.a, args.b)
        else:
            summary = diff_artifacts(args.a, args.b)
    except (AuditError, TraceError, ProvenanceError) as error:
        print(f"tracediff: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"tracediff: cannot read input: {error}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(json.dumps(json_ready(summary), indent=2))
        elif args.bisect:
            print(render_bisect(summary))
        else:
            print(render_diff(summary))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; the diff it asked for
        # was delivered, so this is not an error.
        sys.stderr.close()
    if args.fail_on_divergence and summary.get("diverged"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
