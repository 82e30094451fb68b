"""CI driver: chaos-kill an audited sweep, resume it, verify the bundle.

The acceptance scenario behind the ``verify-audit`` CI job, end to end:

1. Run :func:`repro.robustness.robust_guarantee_sweep` with ``audit=True``
   under a fault plan that dies mid-sweep (every attempt on one task
   raises), leaving a partial checkpoint and a partial audit bundle.
   Then cut the checkpoint's last record in half, as a kill in the
   middle of its write would have left it.
2. Resume by calling :func:`repro.robustness.robust_guarantee_sweep`
   again (``audit=True`` again, no faults): the engine skips the rows
   that have both a checkpoint record and an audit leaf, re-runs the
   rest and continues the Merkle chain.  The row whose record was torn
   re-runs too; it already had a leaf, so it chains a second one, equal
   in content to the first.
3. Assert the merged rows equal the serial sweep's, then run the full
   ``tools/verifyaudit`` tier stack over the bundle -- hash chain,
   checkpoint cross-check, and derivation replay -- and demand exit 0.

Artifacts (checkpoint, bundle, ``repro-verifyaudit/1`` report) land in
``--artifact-dir`` for the CI upload step; the chain root is printed so
the job log itself witnesses what was certified.  A re-run on the same
directory deletes the earlier checkpoint and bundle first.  Exit status:
0 when the resumed bundle verifies clean, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.attack.sweep import guarantee_sweep  # noqa: E402
from repro.errors import RetryExhaustedError  # noqa: E402
from repro.robustness import (  # noqa: E402
    Fault,
    FaultPlan,
    RetryPolicy,
    default_audit_path,
    robust_guarantee_sweep,
)

from tools.verifyaudit import render_report, verify_audit  # noqa: E402

MESSENGERS = [1, 2]
LOSSES = [Fraction(1, 2)]
KILL_INDEX = 2
ATTEMPTS = 2
#: Every attempt on task KILL_INDEX raises, so the sweep dies there.
DIES_MID_SWEEP = FaultPlan(
    {(KILL_INDEX, attempt): Fault("raise") for attempt in range(ATTEMPTS)}
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--artifact-dir",
        default="audit-artifacts",
        help="where the checkpoint, bundle, and report are written",
    )
    args = parser.parse_args(argv)

    artifact_dir = Path(args.artifact_dir)
    artifact_dir.mkdir(parents=True, exist_ok=True)
    checkpoint = artifact_dir / "audited-sweep.jsonl"
    bundle = Path(default_audit_path(checkpoint))
    # A checkpoint left by an earlier run would resume complete, and the
    # scheduled death would never happen: start phase 1 from nothing.
    for stale in (checkpoint, bundle):
        stale.unlink(missing_ok=True)

    print(f"phase 1: audited sweep, chaos death on task {KILL_INDEX}")
    try:
        robust_guarantee_sweep(
            MESSENGERS,
            LOSSES,
            max_workers=1,
            policy=RetryPolicy(max_attempts=ATTEMPTS, base_delay=0.0, jitter=0.0),
            checkpoint_path=checkpoint,
            faults=DIES_MID_SWEEP,
            audit=True,
        )
    except RetryExhaustedError as error:
        print(f"  sweep died as scheduled: {error}")
    else:
        print("  ERROR: the chaos sweep was supposed to die", file=sys.stderr)
        return 1
    data = checkpoint.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    checkpoint.write_bytes(data[: last + (len(data) - last) // 2])
    print("  checkpoint's last record cut in half (a kill mid-write)")

    print("phase 2: resume (no faults, chain continues)")
    rows = robust_guarantee_sweep(
        MESSENGERS, LOSSES, max_workers=1, checkpoint_path=checkpoint, audit=True
    )
    if rows != guarantee_sweep(MESSENGERS, LOSSES):
        print("  ERROR: resumed rows differ from serial sweep", file=sys.stderr)
        return 1
    print(f"  {len(rows)} rows, identical to the serial sweep")

    print("phase 3: verifyaudit (hash + checkpoint + replay tiers)")
    report = verify_audit(str(bundle))
    report_path = artifact_dir / "verifyaudit-report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(render_report(report))
    print(f"report: {report_path}")
    print(f"chain root: {report['root']}")
    return 0 if report["verdict"] == "clean" else 1


if __name__ == "__main__":
    sys.exit(main())
