"""Audited sweeps: chained rows survive chaos, resume, and tamper."""

import hashlib
import importlib.util
import json
import os
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.attack.sweep import guarantee_sweep, sweep_tasks
from repro.errors import RetryExhaustedError
from repro.obs import read_audit_bundle, verify_bundle
from repro.robustness import (
    FaultPlan,
    RetryPolicy,
    SweepCheckpoint,
    default_audit_path,
    robust_guarantee_sweep,
)
from repro.robustness.checkpoint import row_to_record
from repro.robustness.faults import FaultInjectingTask, InjectedFault

from tools.reprotop import checkpoint_status
from tools.verifyaudit import verify_audit
from tools.verifyaudit.cli import main as verifyaudit_main

MESSENGERS = [1, 2]
LOSSES = [Fraction(1, 2)]

FAST = RetryPolicy(max_attempts=5, base_delay=0.0, jitter=0.0)


def _no_sleep(seconds):
    assert seconds >= 0


def _refuses_to_run(task):
    """A task function for a resume that must find nothing left to do."""
    raise AssertionError(f"a checkpointed task was re-run on resume: {task[:1]}")


def _serial_rows():
    return guarantee_sweep(MESSENGERS, LOSSES)


def _export_artifact(path):
    """Copy a sweep artifact into CHAOS_ARTIFACT_DIR for the CI job."""
    target_dir = os.environ.get("CHAOS_ARTIFACT_DIR")
    if not target_dir:
        return
    os.makedirs(target_dir, exist_ok=True)
    shutil.copy(path, os.path.join(target_dir, os.path.basename(path)))


def _chaos_task(task, context):
    from repro.attack.sweep import sweep_row_of

    inner = FaultInjectingTask(
        inner=sweep_row_of,
        plan=FaultPlan.from_seed(
            seed=7, task_count=6, kinds=("raise", "kill"), rate=0.7
        ),
    )
    return inner(task, context)


_chaos_task.wants_context = True


def _dies_on_task_2(task, context):
    from repro.attack.sweep import sweep_row_of

    if context.index == 2:
        raise InjectedFault("simulated mid-sweep death on task 2")
    return sweep_row_of(task)


_dies_on_task_2.wants_context = True


class TestAuditedSweep:
    def test_audit_never_changes_the_rows(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        rows = robust_guarantee_sweep(
            MESSENGERS, LOSSES, max_workers=1, checkpoint_path=path, audit=True
        )
        assert rows == _serial_rows()

    def test_audit_requires_a_checkpoint(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            robust_guarantee_sweep(MESSENGERS, LOSSES, audit=True)

    def test_bundle_covers_every_checkpoint_row(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        robust_guarantee_sweep(
            MESSENGERS, LOSSES, max_workers=1, checkpoint_path=path, audit=True
        )
        bundle = read_audit_bundle(default_audit_path(path))
        assert verify_bundle(bundle) == []
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        completed = SweepCheckpoint(path).load(tasks)
        assert bundle.leaf_indexes() == frozenset(completed)
        assert bundle.leaf_indexes() == frozenset(range(len(tasks)))

    def test_checkpoint_and_bundle_bytes_are_pinned(self, tmp_path):
        # Golden digests: the 54-row audited sweep must write the same
        # checkpoint and bundle bytes, byte for byte, across refactors
        # of the bundle writer.
        path = tmp_path / "golden.jsonl"
        robust_guarantee_sweep(
            range(1, 7),
            [Fraction(40, 97), Fraction(36, 97), Fraction(48, 97)],
            checkpoint_path=path,
            audit=True,
            max_workers=1,
        )
        digests = [
            hashlib.sha256(Path(artifact).read_bytes()).hexdigest()
            for artifact in (path, default_audit_path(path))
        ]
        assert digests == [
            "594404d1800a6c0f8030640f1d912c57a39d848973c8c3fcde62a9457786c90f",
            "ed5c84edfd1f975d87172aa6a15ef2c880a595d925d674260b85270d04eb8b5c",
        ]


def _audit_chaos_script():
    spec = importlib.util.spec_from_file_location(
        "audit_chaos_sweep", REPO_ROOT / "benchmarks" / "audit_chaos_sweep.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestChaosAuditedSweep:
    def test_chaos_script_reruns_on_the_same_directory(self, tmp_path, capsys):
        # A second run must not resume the first run's complete
        # checkpoint: the scheduled death has to happen again.
        script = _audit_chaos_script()
        assert script.main(["--artifact-dir", str(tmp_path)]) == 0
        assert script.main(["--artifact-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.count("sweep died as scheduled") == 2

    def test_chaos_kill_resume_bundle_verifies_clean(self, tmp_path):
        # The pinned acceptance scenario: kill a sweep mid-flight,
        # resume it, and verifyaudit must certify the merged bundle
        # (exit 0) -- hash, checkpoint, and replay tiers all clean.
        path = tmp_path / "killed.jsonl"
        with pytest.raises(RetryExhaustedError):
            robust_guarantee_sweep(
                MESSENGERS,
                LOSSES,
                max_workers=1,
                policy=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
                checkpoint_path=path,
                task_function=_dies_on_task_2,
                sleep=_no_sleep,
                audit=True,
            )
        rows = robust_guarantee_sweep(
            MESSENGERS, LOSSES, max_workers=1, checkpoint_path=path, audit=True
        )
        assert rows == _serial_rows()
        assert verifyaudit_main([str(default_audit_path(path))]) == 0
        _export_artifact(path)
        _export_artifact(default_audit_path(path))

    def test_kill_mid_checkpoint_write_then_resume_verifies_clean(self, tmp_path):
        # The sweep dies on task 2 while writing its checkpoint row: the
        # file ends in half a record and the bundle has no leaf 2.
        # Regression: the resumed appends used to fuse with that half
        # line, so the checkpoint lost rows 2..5 for good and verifyaudit
        # certified a correctly resumed sweep "divergent".
        path = tmp_path / "torn.jsonl"
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        serial = _serial_rows()
        with pytest.raises(RetryExhaustedError):
            robust_guarantee_sweep(
                MESSENGERS,
                LOSSES,
                max_workers=1,
                policy=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
                checkpoint_path=path,
                task_function=_dies_on_task_2,
                sleep=_no_sleep,
                audit=True,
            )
        with open(path, "a", encoding="utf-8") as handle:
            record = json.dumps(row_to_record(2, tasks[2], serial[2]))
            handle.write(record[: len(record) // 2])
        rows = robust_guarantee_sweep(
            MESSENGERS, LOSSES, max_workers=1, checkpoint_path=path, audit=True
        )
        assert rows == serial
        assert SweepCheckpoint(path).load(tasks) == dict(enumerate(serial))
        assert checkpoint_status(str(path)) == len(tasks)
        assert verify_audit(str(default_audit_path(path)))["verdict"] == "clean"
        rows = robust_guarantee_sweep(
            MESSENGERS,
            LOSSES,
            max_workers=1,
            policy=RetryPolicy(max_attempts=1),
            checkpoint_path=path,
            task_function=_refuses_to_run,
            audit=True,
        )
        assert rows == serial

    def test_chaos_sweep_audit_matches_serial_rows(self, tmp_path):
        plan = FaultPlan.from_seed(
            seed=7,
            task_count=len(sweep_tasks(MESSENGERS, LOSSES)),
            kinds=("raise", "kill"),
            rate=0.7,
        )
        assert plan.schedule, "seed 7 must actually schedule faults"
        path = tmp_path / "chaos.jsonl"
        rows = robust_guarantee_sweep(
            MESSENGERS,
            LOSSES,
            policy=FAST,
            checkpoint_path=path,
            task_function=_chaos_task,
            sleep=_no_sleep,
            audit=True,
        )
        assert rows == _serial_rows()
        report = verify_audit(str(default_audit_path(path)))
        assert report["verdict"] == "clean"

    def test_resume_backfills_leaves_the_kill_swallowed(self, tmp_path):
        # A kill can land between the checkpoint append and the audit
        # append: fake that gap by deleting the bundle's last leaf, then
        # resume.  The backfill loop must restore chain coverage.
        path = tmp_path / "sweep.jsonl"
        robust_guarantee_sweep(
            MESSENGERS, LOSSES, max_workers=1, checkpoint_path=path, audit=True
        )
        audit_path = default_audit_path(path)
        lines = open(audit_path).read().splitlines()
        last_leaf = max(
            position
            for position, line in enumerate(lines)
            if json.loads(line).get("type") == "leaf"
        )
        with open(audit_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:last_leaf] + lines[last_leaf + 1 :]) + "\n")
        before = read_audit_bundle(audit_path)
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        assert before.leaf_indexes() != frozenset(range(len(tasks)))
        rows = robust_guarantee_sweep(
            MESSENGERS, LOSSES, checkpoint_path=path, audit=True
        )
        assert rows == _serial_rows()
        after = read_audit_bundle(audit_path)
        assert after.leaf_indexes() == frozenset(range(len(tasks)))
        assert verify_audit(str(audit_path))["verdict"] == "clean"


class TestTamperedSweep:
    def test_single_bit_row_tamper_is_exit_1(self, tmp_path):
        # The other pinned acceptance scenario: flip one digit of one
        # recorded threshold and verifyaudit must reject (exit 1).
        path = tmp_path / "sweep.jsonl"
        robust_guarantee_sweep(
            MESSENGERS, LOSSES, max_workers=1, checkpoint_path=path, audit=True
        )
        audit_path = default_audit_path(path)
        lines = open(audit_path).read().splitlines()
        tampered = []
        flipped = False
        for line in lines:
            record = json.loads(line)
            if record.get("type") == "leaf" and not flipped:
                threshold = record["row"]["post_threshold"]
                record["row"]["post_threshold"] = (
                    "1/3" if threshold != "1/3" else "1/5"
                )
                flipped = True
            tampered.append(json.dumps(record, sort_keys=True))
        assert flipped
        with open(audit_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(tampered) + "\n")
        assert verifyaudit_main([str(audit_path)]) == 1
        report = verify_audit(str(audit_path))
        assert report["verdict"] == "divergent"
        assert report["hash_defects"]  # the leaf hash no longer matches

    def test_stale_chain_tamper_is_caught_by_checkpoint_tier(self, tmp_path):
        # A smarter tamperer rewrites the row AND recomputes the leaf's
        # hashes, forging a self-consistent chain suffix.  The hash tier
        # passes by construction; the checkpoint cross-check catches it.
        from repro.obs.audit import chain_hash, leaf_hash

        path = tmp_path / "sweep.jsonl"
        robust_guarantee_sweep(
            MESSENGERS, LOSSES, max_workers=1, checkpoint_path=path, audit=True
        )
        audit_path = default_audit_path(path)
        lines = open(audit_path).read().splitlines()
        records = [json.loads(line) for line in lines]
        prev = None
        for record in records:
            if record.get("type") != "leaf":
                continue
            if record["index"] == 1:
                record["row"]["post_threshold"] = "1/977"
            if prev is not None:
                record["prev"] = prev
            record["leaf_hash"] = leaf_hash(
                record["index"], record["task"], record["row"], record["root_ref"]
            )
            record["chain"] = chain_hash(record["prev"], record["leaf_hash"])
            prev = record["chain"]
        with open(audit_path, "w", encoding="utf-8") as handle:
            handle.write(
                "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
            )
        report = verify_audit(str(audit_path), replay=False)
        assert report["hash_defects"] == []
        assert report["checkpoint_defects"]
        assert report["verdict"] == "divergent"
