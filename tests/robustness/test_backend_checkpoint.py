"""Checkpoints are backend-provenance-stamped but backend-independent.

``task_fingerprint`` records the engine that computed a row (provenance)
without making it part of the row's identity: a sweep checkpointed under
one backend resumes under another, and checkpoints written before the
``backend`` field existed still load.  ``_BackendBoundTask`` carries the
engine choice into workers without hiding the wrapped callable's
``wants_context`` probe.
"""

import json
from fractions import Fraction

import pytest

from repro.attack.sweep import guarantee_sweep, sweep_row_of, sweep_tasks
from repro.probability import use_backend, wordmask
from repro.robustness import (
    SweepCheckpoint,
    robust_guarantee_sweep,
    task_fingerprint,
)
from repro.robustness.checkpoint import _BackendBoundTask, _identity_fingerprint

MESSENGERS = [1, 2]
LOSSES = [Fraction(1, 2)]

BACKENDS = ("bitmask", "naive") + (
    ("wordarray",) if wordmask.available() else ()
)


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
    ] + ([
        ("bitmask", "wordarray"),
        ("wordarray", "bitmask"),
    ] if wordmask.available() else []))
    def test_checkpoint_resumes_across_backends(
        self, tmp_path, write_backend, resume_backend
    ):
        path = tmp_path / "sweep.jsonl"
        rows = robust_guarantee_sweep(
            MESSENGERS, LOSSES, checkpoint_path=path, backend=write_backend
        )
        assert rows == guarantee_sweep(MESSENGERS, LOSSES)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert {record["task"]["backend"] for record in records} == {write_backend}

        def poisoned(task):
            raise AssertionError("resume must not recompute completed rows")

        resumed = robust_guarantee_sweep(
            MESSENGERS,
            LOSSES,
            checkpoint_path=path,
            task_function=poisoned,
            backend=resume_backend,
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


class TestBackendBoundTask:
    def test_rows_match_unwrapped(self):
        task = sweep_tasks([1], LOSSES)[0]
        for backend in BACKENDS:
            bound = _BackendBoundTask(sweep_row_of, backend)
            assert bound(task) == sweep_row_of(task)

    def test_wants_context_proxies_the_wrapped_callable(self):
        def plain(task):
            return task

        def contextual(task, context=None):
            return task

        contextual.wants_context = True
        assert _BackendBoundTask(plain, "bitmask").wants_context is False
        assert _BackendBoundTask(contextual, "bitmask").wants_context is True

    @pytest.mark.skipif(not wordmask.available(), reason="numpy not installed")
    def test_robust_sweep_under_wordarray_matches_serial(self, tmp_path):
        rows = robust_guarantee_sweep(
            MESSENGERS,
            LOSSES,
            checkpoint_path=tmp_path / "sweep.jsonl",
            backend="wordarray",
        )
        assert rows == guarantee_sweep(MESSENGERS, LOSSES)
