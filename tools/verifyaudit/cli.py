"""Command-line interface: ``python -m tools.verifyaudit BUNDLE``."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import AuditError

from .verify import render_report, verify_audit


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verifyaudit",
        description=(
            "Verify a repro-audit/1 Merkle audit bundle without "
            "recomputing the sweep it certifies: recompute the hash "
            "chain and every derivation-node fingerprint, cross-check "
            "leaf payloads against the sweep checkpoint, and replay "
            "audit_derivation over the derivations rebuilt from the "
            "bundle's node records."
        ),
    )
    parser.add_argument("bundle", help="repro-audit/1 bundle (JSONL)")
    parser.add_argument(
        "--checkpoint",
        default=None,
        help=(
            "sweep checkpoint to cross-check (default: strip the "
            "bundle's .audit suffix, if that file exists)"
        ),
    )
    parser.add_argument(
        "--sample",
        type=int,
        default=None,
        metavar="N",
        help=(
            "replay only N evenly spaced derivations instead of all "
            "(deterministic selection; hash and checkpoint tiers always "
            "cover everything)"
        ),
    )
    parser.add_argument(
        "--skip-replay",
        action="store_true",
        help=(
            "hash and checkpoint tiers only -- the cheap verification a "
            "third party can run without building any systems (also the "
            "only option for bundles swept with non-default builders)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the repro-verifyaudit/1 report as JSON",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.sample is not None and args.sample < 1:
        parser.error(
            f"--sample must be at least 1, not {args.sample} "
            "(--skip-replay skips the replay)"
        )
    try:
        report = verify_audit(
            args.bundle,
            checkpoint_path=args.checkpoint,
            sample=args.sample,
            replay=not args.skip_replay,
        )
    except AuditError as error:
        print(f"verifyaudit: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"verifyaudit: cannot read input: {error}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(render_report(report))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; the verdict it asked
        # for was delivered, so this is not an error.
        pass
    return 0 if report["verdict"] == "clean" else 1


if __name__ == "__main__":
    sys.exit(main())
