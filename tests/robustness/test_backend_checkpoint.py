"""Checkpoints are backend-provenance-stamped but backend-independent.

``task_fingerprint`` records the engine that computed a row (provenance)
without making it part of the row's identity: a sweep checkpointed under
one backend resumes under another, and checkpoints written before the
``backend`` field existed still load.
"""

import json
from fractions import Fraction

import pytest

from repro.attack.sweep import guarantee_sweep, sweep_tasks
from repro.probability import BACKENDS, use_backend
from repro.robustness import (
    Fault,
    FaultPlan,
    RetryPolicy,
    SweepCheckpoint,
    robust_guarantee_sweep,
    task_fingerprint,
)
from repro.robustness.checkpoint import _identity_fingerprint

MESSENGERS = [1, 2]
LOSSES = [Fraction(1, 2)]


class TestFingerprint:
    def test_fingerprint_records_active_backend(self):
        task = sweep_tasks([1], LOSSES)[0]
        for backend in BACKENDS:
            with use_backend(backend) as active:
                assert task_fingerprint(task)["backend"] == active

    def test_identity_ignores_backend(self):
        task = sweep_tasks([1], LOSSES)[0]
        with use_backend("naive"):
            naive = task_fingerprint(task)
        bitmask = task_fingerprint(task)
        assert naive != bitmask
        assert _identity_fingerprint(naive) == _identity_fingerprint(bitmask)

    def test_identity_accepts_pre_backend_fingerprints(self):
        task = sweep_tasks([1], LOSSES)[0]
        fingerprint = task_fingerprint(task)
        legacy = {
            key: value for key, value in fingerprint.items() if key != "backend"
        }
        assert _identity_fingerprint(legacy) == _identity_fingerprint(fingerprint)


class TestCrossBackendResume:
    @pytest.mark.parametrize("write_backend,resume_backend", [
        ("bitmask", "naive"),
        ("naive", "bitmask"),
    ])
    def test_checkpoint_resumes_across_backends(
        self, tmp_path, write_backend, resume_backend
    ):
        path = tmp_path / "sweep.jsonl"
        with use_backend(write_backend):
            rows = robust_guarantee_sweep(
                MESSENGERS, LOSSES, checkpoint_path=path, max_workers=1
            )
        assert rows == guarantee_sweep(MESSENGERS, LOSSES)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert {record["task"]["backend"] for record in records} == {write_backend}

        # Resume must not recompute a completed row: any task that runs
        # raises, and one attempt makes that terminal.
        poisoned = FaultPlan(
            {(index, 0): Fault("raise") for index in range(len(rows))}
        )
        with use_backend(resume_backend):
            resumed = robust_guarantee_sweep(
                MESSENGERS,
                LOSSES,
                checkpoint_path=path,
                policy=RetryPolicy(max_attempts=1),
                faults=poisoned,
                max_workers=1,
            )
        assert resumed == rows

    def test_pre_backend_checkpoint_loads(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        robust_guarantee_sweep(MESSENGERS, LOSSES, checkpoint_path=path)
        # strip the backend field, as a checkpoint from before it existed
        stripped = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            del record["task"]["backend"]
            stripped.append(json.dumps(record))
        path.write_text("\n".join(stripped) + "\n")
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        completed = SweepCheckpoint(path).load(tasks)
        assert sorted(completed) == list(range(len(tasks)))

    def test_wrong_identity_still_rejected(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        robust_guarantee_sweep([1], LOSSES, checkpoint_path=path)
        from repro.errors import CheckpointError

        mismatched = sweep_tasks([2], LOSSES)
        with pytest.raises(CheckpointError):
            SweepCheckpoint(path).load(mismatched)
