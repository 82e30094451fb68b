"""Checkpoint/resume: exact rows survive kills, truncation, and chaos."""

import json
import os
import shutil
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.attack.sweep import SweepRow, guarantee_sweep, sweep_tasks
from repro.errors import CheckpointError, RetryExhaustedError
from repro.reporting import fraction_from_json
from repro.robustness import (
    Fault,
    FaultPlan,
    RetryPolicy,
    SweepCheckpoint,
    robust_guarantee_sweep,
    row_from_record,
    row_to_record,
    task_fingerprint,
)

MESSENGERS = [1, 2]
LOSSES = [Fraction(1, 2)]

FAST = RetryPolicy(max_attempts=5, base_delay=0.0, jitter=0.0)


def _raises_on(indexes, attempts=1):
    """A plan whose first ``attempts`` attempts of each task in
    ``indexes`` raise.

    Under a one-attempt policy, a plan over the checkpointed tasks
    proves a resume skips them: any of them that runs fails the sweep.
    """
    return FaultPlan(
        {
            (index, attempt): Fault("raise")
            for index in indexes
            for attempt in range(attempts)
        }
    )


def _serial_rows():
    return guarantee_sweep(MESSENGERS, LOSSES)


def _export_artifact(path):
    """Copy a checkpoint into CHAOS_ARTIFACT_DIR for the CI artifact."""
    target_dir = os.environ.get("CHAOS_ARTIFACT_DIR")
    if not target_dir:
        return
    os.makedirs(target_dir, exist_ok=True)
    shutil.copy(path, os.path.join(target_dir, os.path.basename(path)))


class TestRecordRoundTrip:
    @given(
        run_level=st.fractions(min_value=0, max_value=1),
        post_threshold=st.fractions(min_value=0, max_value=1),
        loss=st.fractions(min_value=0, max_value=1),
        messengers=st.integers(min_value=1, max_value=50),
    )
    def test_round_trip_preserves_exact_fractions(
        self, run_level, post_threshold, loss, messengers
    ):
        task = ("CA1", None, messengers, loss, Fraction(99, 100))
        row = SweepRow(
            protocol="CA1",
            messengers=messengers,
            loss=loss,
            run_level=run_level,
            post_threshold=post_threshold,
            achieves_99_post=post_threshold >= Fraction(99, 100),
        )
        record = row_to_record(3, task, row)
        rebuilt = row_from_record(json.loads(json.dumps(record, sort_keys=True)))
        assert rebuilt == row
        assert isinstance(rebuilt.run_level, Fraction)
        assert isinstance(rebuilt.post_threshold, Fraction)
        assert isinstance(rebuilt.loss, Fraction)

    def test_fraction_from_json_rejects_floats(self):
        with pytest.raises(ValueError):
            fraction_from_json(0.5)
        with pytest.raises(ValueError):
            fraction_from_json(True)

    def test_fingerprint_excludes_the_builder(self):
        def builder_a(messengers, loss):
            raise NotImplementedError

        def builder_b(messengers, loss):
            raise NotImplementedError

        one = task_fingerprint(("CA1", builder_a, 2, Fraction(1, 2), Fraction(99, 100)))
        two = task_fingerprint(("CA1", builder_b, 2, Fraction(1, 2), Fraction(99, 100)))
        assert one == two


class TestSweepMatchesSerial:
    def test_fresh_sweep_matches_serial_rows(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        rows = robust_guarantee_sweep(
            MESSENGERS, LOSSES, max_workers=1, checkpoint_path=path
        )
        assert rows == _serial_rows()
        assert path.exists()

    def test_strict_sweep_matches_serial_rows(self):
        rows = robust_guarantee_sweep(MESSENGERS, LOSSES, max_workers=1, strict=True)
        assert rows == _serial_rows()


class TestResume:
    def test_resume_skips_completed_tasks(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        serial = _serial_rows()
        checkpoint = SweepCheckpoint(path)
        # Checkpoint every CA1 row, as if a first run died after them.
        ca1 = [index for index, task in enumerate(tasks) if task[0] == "CA1"]
        for index in ca1:
            checkpoint.append(index, tasks[index], serial[index])
        rows = robust_guarantee_sweep(
            MESSENGERS,
            LOSSES,
            max_workers=1,
            policy=RetryPolicy(max_attempts=1),
            checkpoint_path=path,
            faults=_raises_on(ca1),
        )
        assert rows == serial

    def test_resume_tolerates_a_half_written_tail(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        serial = _serial_rows()
        checkpoint = SweepCheckpoint(path)
        for index in range(3):
            checkpoint.append(index, tasks[index], serial[index])
        # Simulate a kill mid-write: append a truncated record.
        with open(path, "a", encoding="utf-8") as handle:
            full = json.dumps(row_to_record(3, tasks[3], serial[3]))
            handle.write(full[: len(full) // 2])
        assert checkpoint.load(tasks) == {0: serial[0], 1: serial[1], 2: serial[2]}
        rows = robust_guarantee_sweep(
            MESSENGERS, LOSSES, max_workers=1, checkpoint_path=path
        )
        assert rows == serial
        # Regression: the resumed appends used to fuse with the torn half
        # line into one garbage line, so the checkpoint silently lost
        # every row from there on and each later resume re-ran them.
        assert SweepCheckpoint(path).load(tasks) == dict(enumerate(serial))
        rows = robust_guarantee_sweep(
            MESSENGERS,
            LOSSES,
            max_workers=1,
            checkpoint_path=path,
            policy=RetryPolicy(max_attempts=1),
            faults=_raises_on(range(len(tasks))),
        )
        assert rows == serial

    def test_append_after_a_cut_at_every_byte(self, tmp_path):
        # A kill can cut the checkpoint at any byte; whatever survives, a
        # resumed checkpoint must take the next row as a loadable line.
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        serial = _serial_rows()
        full = tmp_path / "full.jsonl"
        for index in range(2):
            SweepCheckpoint(full).append(index, tasks[index], serial[index])
        data = full.read_bytes()
        ends = [end for end, byte in enumerate(data) if byte == ord("\n")]
        path = tmp_path / "cut.jsonl"
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            SweepCheckpoint(path).append(5, tasks[5], serial[5])
            whole = sum(1 for end in ends if end <= cut)
            expected = {index: serial[index] for index in range(whole)}
            expected[5] = serial[5]
            assert SweepCheckpoint(path).load(tasks) == expected, cut

    def test_garbage_before_the_final_line_is_a_hard_error(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        serial = _serial_rows()
        SweepCheckpoint(path).append(0, tasks[0], serial[0])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{torn\n")
            handle.write(json.dumps(row_to_record(1, tasks[1], serial[1])) + "\n")
        with pytest.raises(CheckpointError, match="line 2 is not JSON"):
            SweepCheckpoint(path).load(tasks)

    def test_missing_file_means_fresh_sweep(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path / "never-written.jsonl")
        assert checkpoint.load(sweep_tasks(MESSENGERS, LOSSES)) == {}

    def test_fingerprint_mismatch_is_a_hard_error(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        serial = _serial_rows()
        SweepCheckpoint(path).append(0, tasks[0], serial[0])
        other_tasks = sweep_tasks(MESSENGERS, [Fraction(1, 3)])
        with pytest.raises(CheckpointError):
            SweepCheckpoint(path).load(other_tasks)

    def test_out_of_range_index_is_a_hard_error(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        serial = _serial_rows()
        SweepCheckpoint(path).append(len(tasks) + 5, tasks[0], serial[0])
        with pytest.raises(CheckpointError):
            SweepCheckpoint(path).load(tasks)

    def test_malformed_record_is_a_hard_error(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"index": 0, "task": {}}) + "\n")
        with pytest.raises(CheckpointError):
            SweepCheckpoint(path).load(sweep_tasks(MESSENGERS, LOSSES))


class TestChaosSweep:
    def test_chaos_sweep_matches_serial_rows(self, tmp_path):
        # Worker kills, raises and the checkpoint all at once: the row
        # list must still be identical to the serial sweep.
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        plan = FaultPlan.from_seed(
            seed=7, task_count=len(tasks), kinds=("raise", "kill"), rate=0.7
        )
        assert plan.schedule, "seed 7 must actually schedule faults"
        path = tmp_path / "chaos.jsonl"
        rows = robust_guarantee_sweep(
            MESSENGERS,
            LOSSES,
            policy=FAST,
            checkpoint_path=path,
            faults=plan,
        )
        assert rows == _serial_rows()
        _export_artifact(path)

    def test_kill_mid_sweep_then_resume_reproduces_rows(self, tmp_path):
        # Phase 1: a sweep dies on task 2 (every attempt faults).  The
        # checkpoint must hold exactly the rows completed before death.
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        serial = _serial_rows()
        path = tmp_path / "killed.jsonl"
        with pytest.raises(RetryExhaustedError):
            robust_guarantee_sweep(
                MESSENGERS,
                LOSSES,
                max_workers=1,
                policy=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
                checkpoint_path=path,
                faults=_raises_on([2], attempts=2),
            )
        survived = SweepCheckpoint(path).load(tasks)
        assert survived == {0: serial[0], 1: serial[1]}
        # Phase 2: resume with no faults; only the incomplete tasks run
        # and the full row list comes back.
        rows = robust_guarantee_sweep(
            MESSENGERS, LOSSES, max_workers=1, checkpoint_path=path
        )
        assert rows == serial
        assert SweepCheckpoint(path).load(tasks).keys() == set(range(len(tasks)))
        _export_artifact(path)
