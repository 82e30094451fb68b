"""Audited sweeps: chained rows survive chaos, resume, and tamper."""

import dataclasses
import errno
import hashlib
import importlib.util
import json
import os
import shutil
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.attack import build_ca1, build_ca1_adaptive, build_ca2
from repro.attack.sweep import guarantee_sweep, row_provenance_derivation, sweep_tasks
from repro.core.model import GlobalState
from repro.errors import CheckpointError, RetryExhaustedError, ValidationError
from repro.obs import MetricsRecorder, read_audit_bundle, use_recorder, verify_bundle
from repro.obs.audit import AuditBundleWriter, node_from_table
from repro.obs.jsonl import JsonlFormat
from repro.probability import use_backend
from repro.robustness import (
    Fault,
    FaultPlan,
    RetryPolicy,
    SweepCheckpoint,
    default_audit_path,
    robust_guarantee_sweep,
)
from repro.robustness.checkpoint import row_to_record
from repro.trees.probabilistic_system import ProbabilisticSystem
from repro.trees.tree import ComputationTree

from tools.verifyaudit import verify_audit
from tools.verifyaudit.cli import main as verifyaudit_main

MESSENGERS = [1, 2]
LOSSES = [Fraction(1, 2)]

FAST = RetryPolicy(max_attempts=5, base_delay=0.0, jitter=0.0)


def _raises_on(indexes, attempts=1):
    """A plan whose first ``attempts`` attempts of each task in
    ``indexes`` raise."""
    return FaultPlan(
        {
            (index, attempt): Fault("raise")
            for index in indexes
            for attempt in range(attempts)
        }
    )


#: Every attempt of task 2 raises under a two-attempt policy: the
#: sweep dies there.
DIES_ON_TASK_2 = _raises_on([2], attempts=2)

#: For a resume that must find nothing left to do: any task that runs
#: raises, and a one-attempt policy makes that terminal.
REFUSES_TO_RUN = _raises_on(range(len(sweep_tasks(MESSENGERS, LOSSES))))


def _serial_rows():
    return guarantee_sweep(MESSENGERS, LOSSES)


def _export_artifact(path):
    """Copy a sweep artifact into CHAOS_ARTIFACT_DIR for the CI job."""
    target_dir = os.environ.get("CHAOS_ARTIFACT_DIR")
    if not target_dir:
        return
    os.makedirs(target_dir, exist_ok=True)
    shutil.copy(path, os.path.join(target_dir, os.path.basename(path)))


#: Builder calls made in this process, per protocol.  A pool worker
#: counts in its own copy, which never comes back to the parent.
_BUILDS = Counter()


def _counted_ca1(messengers, loss):
    _BUILDS["CA1"] += 1
    return build_ca1(messengers, loss)


def _counted_ca2(messengers, loss):
    _BUILDS["CA2"] += 1
    return build_ca2(messengers, loss)


def _counted_ca1_adaptive(messengers, loss):
    _BUILDS["CA1-adaptive"] += 1
    return build_ca1_adaptive(messengers, loss)


#: The default builders under their default names, so verifyaudit's
#: replay still finds them; module-level, so a pool can pickle them.
COUNTED_BUILDERS = {
    "CA1": _counted_ca1,
    "CA2": _counted_ca2,
    "CA1-adaptive": _counted_ca1_adaptive,
}


def _shared_state_ca2(messengers, loss):
    """A CA2 system whose psys breaks Section 4's technical assumption:
    two branches of its one tree converge on one global state."""
    root, left, right, shared = (
        GlobalState(environment=name, local_states=("idle", "idle"))
        for name in ("root", "left", "right", "shared")
    )
    tree = ComputationTree(
        adversary="shared-child",
        root=root,
        children={root: [left, right], left: [shared], right: [shared]},
        edge_probabilities={
            (root, left): Fraction(1, 2),
            (root, right): Fraction(1, 2),
            (left, shared): Fraction(1),
            (right, shared): Fraction(1),
        },
        validate=False,
    )
    return dataclasses.replace(
        build_ca2(messengers, loss), psys=ProbabilisticSystem([tree])
    )


def _artifact_bytes(path):
    return [Path(path).read_bytes(), Path(default_audit_path(path)).read_bytes()]


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


class TestOneBuildPerSerialRow:
    """An audited sweep builds each row's system once, in whichever
    process computes the row: the row and the derivation its leaf binds
    come from that one build."""

    MANY = (range(1, 4), [Fraction(1, 2), Fraction(36, 97)])

    @pytest.fixture
    def builds(self):
        _BUILDS.clear()
        yield _BUILDS
        _BUILDS.clear()

    def _per_protocol(self, count):
        rows = len(MESSENGERS) * len(LOSSES)
        return {name: count * rows for name in COUNTED_BUILDERS}

    @pytest.mark.parametrize(
        "faults", [None, FaultPlan()], ids=["own-rows", "faults"]
    )
    def test_serial_audited_sweep_builds_per_row(self, tmp_path, builds, faults):
        # A fault plan wraps the sweep's own payload: one that never
        # fires adds no build.
        path = tmp_path / "sweep.jsonl"
        rows = robust_guarantee_sweep(
            MESSENGERS,
            LOSSES,
            builders=COUNTED_BUILDERS,
            max_workers=1,
            checkpoint_path=path,
            faults=faults,
            audit=True,
        )
        assert rows == _serial_rows()
        assert builds == self._per_protocol(1)
        assert verify_audit(str(default_audit_path(path)))["verdict"] == "clean"

    def test_pool_rows_build_no_system_in_this_process(self, tmp_path, builds):
        serial = tmp_path / "serial.jsonl"
        robust_guarantee_sweep(
            MESSENGERS,
            LOSSES,
            builders=COUNTED_BUILDERS,
            max_workers=1,
            checkpoint_path=serial,
            audit=True,
        )
        builds.clear()
        pool = tmp_path / "pool.jsonl"
        metrics = MetricsRecorder()
        with use_recorder(metrics):
            rows = robust_guarantee_sweep(
                MESSENGERS,
                LOSSES,
                builders=COUNTED_BUILDERS,
                max_workers=2,
                policy=FAST,
                checkpoint_path=pool,
                audit=True,
            )
        assert rows == _serial_rows()
        # The workers built the rows and derived their leaves; this
        # process built nothing, unless the pool never ran.
        fell_back = metrics.counters.get("engine.pool_fallbacks")
        assert builds == (self._per_protocol(1) if fell_back else {})
        assert _artifact_bytes(pool) == _artifact_bytes(serial)

    def test_fallback_rows_build_once(self, tmp_path):
        # Closures cannot cross the process boundary, so a default-workers
        # sweep over them falls back to computing its rows in-process.
        builds = Counter()

        def counted(name, build):
            def builder(messengers, loss):
                builds[name] += 1
                return build(messengers, loss)

            return builder

        closures = {
            name: counted(name, build) for name, build in COUNTED_BUILDERS.items()
        }
        metrics = MetricsRecorder()
        path = tmp_path / "fallback.jsonl"
        with use_recorder(metrics):
            rows = robust_guarantee_sweep(
                MESSENGERS,
                LOSSES,
                builders=closures,
                policy=FAST,
                checkpoint_path=path,
                audit=True,
            )
        assert metrics.counters["engine.pool_fallbacks"] == 1
        assert rows == _serial_rows()
        assert builds == self._per_protocol(1)
        assert verify_audit(str(default_audit_path(path)))["verdict"] == "clean"

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_leaves_bind_their_rows_derivation(self, tmp_path, workers):
        path = tmp_path / "sweep.jsonl"
        rows = robust_guarantee_sweep(
            *self.MANY,
            max_workers=workers,
            policy=FAST,
            checkpoint_path=path,
            audit=True,
        )
        assert rows == guarantee_sweep(*self.MANY)
        tasks = sweep_tasks(*self.MANY)
        bundle = read_audit_bundle(default_audit_path(path))
        assert [leaf["index"] for leaf in bundle.leaves] == list(range(len(tasks)))
        for leaf in bundle.leaves:
            _name, builder, messengers, loss, _epsilon = tasks[leaf["index"]]
            expected = row_provenance_derivation(builder(messengers, loss)).root
            assert node_from_table(bundle.nodes, leaf["root_ref"]) == expected

    def test_serial_audited_rows_match_under_the_naive_backend(self, tmp_path):
        with use_backend("naive"):
            rows = robust_guarantee_sweep(
                MESSENGERS,
                LOSSES,
                max_workers=1,
                checkpoint_path=tmp_path / "naive.jsonl",
                audit=True,
            )
            assert rows == guarantee_sweep(MESSENGERS, LOSSES)
        assert rows == _serial_rows()

    def test_strict_audited_rows_and_bytes_equal_the_plain_run(self, tmp_path):
        plain = tmp_path / "plain.jsonl"
        strict = tmp_path / "strict.jsonl"
        rows = robust_guarantee_sweep(
            MESSENGERS, LOSSES, max_workers=1, checkpoint_path=plain, audit=True
        )
        assert (
            robust_guarantee_sweep(
                MESSENGERS,
                LOSSES,
                max_workers=1,
                checkpoint_path=strict,
                strict=True,
                audit=True,
            )
            == rows
        )
        assert _artifact_bytes(strict) == _artifact_bytes(plain)

    def test_strict_audited_sweep_rejects_an_invalid_system(self, tmp_path):
        builders = {"CA2": build_ca2, "BROKEN": _shared_state_ca2}
        once = RetryPolicy(max_attempts=1)
        with pytest.raises(RetryExhaustedError) as plain:
            robust_guarantee_sweep(
                [1], LOSSES, builders=builders, max_workers=1, policy=once, strict=True
            )
        path = tmp_path / "strict.jsonl"
        with pytest.raises(RetryExhaustedError) as audited:
            robust_guarantee_sweep(
                [1],
                LOSSES,
                builders=builders,
                max_workers=1,
                policy=once,
                checkpoint_path=path,
                strict=True,
                audit=True,
            )
        assert str(audited.value) == str(plain.value)
        assert isinstance(audited.value.__cause__, ValidationError)
        assert audited.value.task_index == 1
        # The valid row is chained; the invalid task has no leaf.
        assert read_audit_bundle(default_audit_path(path)).leaf_indexes() == {0}

    def test_failed_audit_append_resumes_to_a_clean_bundle(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "sweep.jsonl"
        original = AuditBundleWriter.append
        appends = []

        def disk_full_on_the_third_leaf(writer, *arguments):
            appends.append(arguments[0])
            if len(appends) == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            return original(writer, *arguments)

        monkeypatch.setattr(AuditBundleWriter, "append", disk_full_on_the_third_leaf)
        with pytest.raises(OSError) as full:
            robust_guarantee_sweep(
                MESSENGERS, LOSSES, max_workers=1, checkpoint_path=path, audit=True
            )
        assert full.value.errno == errno.ENOSPC
        monkeypatch.setattr(AuditBundleWriter, "append", original)
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        # The third row reached the checkpoint; its leaf did not.
        assert set(SweepCheckpoint(path).load(tasks)) == {0, 1, 2}
        assert read_audit_bundle(default_audit_path(path)).leaf_indexes() == {0, 1}
        rows = robust_guarantee_sweep(
            MESSENGERS, LOSSES, max_workers=1, checkpoint_path=path, audit=True
        )
        assert rows == _serial_rows()
        bundle = read_audit_bundle(default_audit_path(path))
        assert bundle.leaf_indexes() == frozenset(range(len(tasks)))
        assert verify_audit(str(default_audit_path(path)))["verdict"] == "clean"


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
                faults=DIES_ON_TASK_2,
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
                faults=DIES_ON_TASK_2,
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
        # No mid-file garbage, one record per task.
        assert len(JsonlFormat("checkpoint", CheckpointError).read(path)) == len(tasks)
        assert verify_audit(str(default_audit_path(path)))["verdict"] == "clean"
        rows = robust_guarantee_sweep(
            MESSENGERS,
            LOSSES,
            max_workers=1,
            policy=RetryPolicy(max_attempts=1),
            checkpoint_path=path,
            faults=REFUSES_TO_RUN,
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
            faults=plan,
            audit=True,
        )
        assert rows == _serial_rows()
        report = verify_audit(str(default_audit_path(path)))
        assert report["verdict"] == "clean"

    def test_resume_reruns_the_row_whose_leaf_the_kill_swallowed(self, tmp_path):
        # A kill can land between the checkpoint append and the audit
        # append: fake that gap by deleting the bundle's last leaf, then
        # resume.  That row is not done, so it runs once more and chains
        # a leaf from its own build.
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
        metrics = MetricsRecorder()
        with use_recorder(metrics):
            rows = robust_guarantee_sweep(
                MESSENGERS, LOSSES, checkpoint_path=path, audit=True
            )
        assert rows == _serial_rows()
        assert metrics.counters["engine.attempts"] == 1
        # The re-run appended a second record for its row, equal to the
        # first byte for byte.
        records = path.read_bytes().splitlines()
        assert len(records) == len(tasks) + 1
        assert records[-1] == records[len(tasks) - 1]
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
