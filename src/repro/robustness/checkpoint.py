"""Checkpoint/resume for the Proposition 11 guarantee sweeps.

A long sweep should survive being killed: every completed row streams to
an append-only JSONL checkpoint the moment it is computed, and a resumed
run loads the file, skips the finished tasks, and still returns the full
row list in the deterministic serial order.  Rows stay **exact** on
disk: every :class:`fractions.Fraction` is encoded as its ``"p/q"``
string via :func:`repro.reporting.json_ready` and decoded back with
:func:`repro.reporting.fraction_from_json`, so a resumed sweep is
bit-for-bit identical to an uninterrupted one.

Each record also carries its task's *fingerprint* -- the sweep
coordinates (protocol, messengers, loss, epsilon) of Section 8 --
and resuming against a task list whose fingerprints disagree raises
:class:`~repro.errors.CheckpointError` instead of silently splicing rows
from two different sweeps.

A process killed mid-write leaves a truncated final line.  The file
follows the one torn-tail rule of :mod:`repro.obs.jsonl`: loading drops
that tail (its task re-runs), the next append first cuts it away, and
garbage anywhere *before* the final line -- like any well-formed but
wrong record -- is a hard :class:`~repro.errors.CheckpointError`.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..attack.sweep import (
    Builder,
    SweepRow,
    SweepTask,
    measure_sweep_row,
    sweep_row_of,
    sweep_tasks,
    task_fingerprint,
)
from ..errors import CheckpointError
from ..obs.audit import AuditBundleWriter
from ..obs.jsonl import DurableAppender, JsonlFormat
from ..obs.provenance import Derivation
from ..obs.recorder import get_recorder
from ..probability.fractionutil import FractionLike
from ..reporting import fraction_from_json, json_ready
from .engine import RetryPolicy, run_tasks
from .faults import FaultInjectingTask, FaultPlan
from .validate import validate_system

__all__ = [
    "SweepCheckpoint",
    "default_audit_path",
    "robust_guarantee_sweep",
    "row_from_record",
    "row_to_record",
    "strict_sweep_row_of",
    "task_fingerprint",
]


_CHECKPOINT_LOG = JsonlFormat("checkpoint", CheckpointError)


def _identity_fingerprint(fingerprint: Dict[str, object]) -> Dict[str, object]:
    """A fingerprint's identity fields: everything except ``backend``."""
    return {key: value for key, value in fingerprint.items() if key != "backend"}


def row_to_record(index: int, task: SweepTask, row: SweepRow) -> Dict[str, object]:
    """One checkpoint record: task position, fingerprint, and exact row.

    Exact. Every probability in the record is a Fraction string;
    round-tripping through :func:`row_from_record` is lossless.
    """
    return {
        "index": index,
        "task": task_fingerprint(task),
        "row": json_ready(row),
    }


def row_from_record(record: Dict[str, object]) -> SweepRow:
    """Rebuild the exact :class:`SweepRow` a record encodes.

    Exact. The inverse of :func:`row_to_record`: Fraction strings come
    back as the same Fractions, bit for bit.
    """
    row = record["row"]
    return SweepRow(
        protocol=row["protocol"],
        messengers=int(row["messengers"]),
        loss=fraction_from_json(row["loss"]),
        run_level=fraction_from_json(row["run_level"]),
        post_threshold=fraction_from_json(row["post_threshold"]),
        achieves_99_post=bool(row["achieves_99_post"]),
    )


class SweepCheckpoint:
    """An append-only JSONL checkpoint of completed sweep rows.

    ``append`` writes one record per completed task through
    :class:`repro.obs.jsonl.DurableAppender` -- whose first append cuts any
    torn tail away -- and fsyncs, so a kill at any instant loses at most
    the row being written, as a truncated final line ``load`` tolerates.
    ``load`` returns the completed ``index -> SweepRow`` table after
    verifying every record's fingerprint against the resuming task list.
    """

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        self._log: Optional[DurableAppender] = None

    def append(self, index: int, task: SweepTask, row: SweepRow) -> None:
        """Durably record one completed row."""
        if self._log is None:
            self._log = DurableAppender(self.path, _CHECKPOINT_LOG)
        self._log.append(row_to_record(index, task, row))

    def load(self, tasks: Sequence[SweepTask]) -> Dict[int, SweepRow]:
        """The completed rows on disk, keyed by task index.

        A missing file means a fresh sweep (empty table).  A final line
        that does not decode as JSON is the half-written tail of a killed
        run and is skipped -- its task simply re-runs.  Garbage before the
        final line, or a record that decodes but names an out-of-range
        index or a fingerprint different from ``tasks``, raises
        :class:`CheckpointError`: the file is corrupt or belongs to a
        different sweep.
        """
        try:
            records = _CHECKPOINT_LOG.read(self.path)
        except FileNotFoundError:
            return {}
        completed: Dict[int, SweepRow] = {}
        for line, record in records:
            try:
                index = int(record["index"])
                fingerprint = record["task"]
                row = row_from_record(record)
            except (KeyError, TypeError, ValueError) as error:
                raise CheckpointError(
                    f"checkpoint line {line} is malformed: {error}"
                ) from error
            if not 0 <= index < len(tasks):
                raise CheckpointError(
                    f"checkpoint line {line} names task {index}, but the "
                    f"sweep has {len(tasks)} tasks"
                )
            expected = task_fingerprint(tasks[index])
            if _identity_fingerprint(fingerprint) != _identity_fingerprint(expected):
                raise CheckpointError(
                    f"checkpoint line {line} was computed for "
                    f"{fingerprint!r}, but task {index} of this sweep is "
                    f"{expected!r}; refusing to splice rows from different sweeps"
                )
            completed[index] = row
        return completed


def _checked_row(
    task: SweepTask, strict: bool, derive: bool
) -> Tuple[SweepRow, Optional[Derivation]]:
    """One build of ``task``'s system, validated first when ``strict``:
    its row and, when ``derive``, its threshold derivation.

    The same ``sweep_row`` span and ``cache_stats`` event as
    :func:`~repro.attack.sweep.sweep_row_of`.
    """
    name, builder, messengers, loss, _epsilon = task
    with get_recorder().span(
        "sweep_row", protocol=name, messengers=messengers, loss=loss
    ):
        attack = builder(messengers, loss)
        if strict:
            validate_system(attack.psys).raise_if_failed()
        return measure_sweep_row(task, attack, derive)


def strict_sweep_row_of(task: SweepTask) -> SweepRow:
    """:func:`~repro.attack.sweep.sweep_row_of` with invariant validation.

    Builds the attack system, runs
    :func:`repro.robustness.validate.validate_system` on it (raising
    :class:`~repro.errors.ValidationError` with every violation if the
    Section 3-5 invariants fail), then computes the row from the
    already-built system, in the same ``sweep_row`` span as an
    unvalidated row.  Module-level so it ships to worker processes.
    """
    return _checked_row(task, strict=True, derive=False)[0]


def _audited_sweep_row_of(task: SweepTask) -> Tuple[SweepRow, Derivation]:
    """:func:`~repro.attack.sweep.sweep_row_of`'s row together with the
    derivation its audit leaf binds, from one build and one ``post``
    assignment.

    Deterministic. Both halves are pure functions of the task tuple.
    Module-level so it ships to worker processes: the audited sweep
    chains the pair from whichever process computed it.
    """
    return _checked_row(task, strict=False, derive=True)


def _strict_audited_sweep_row_of(task: SweepTask) -> Tuple[SweepRow, Derivation]:
    """:func:`_audited_sweep_row_of` with :func:`strict_sweep_row_of`'s
    invariant validation before the system is measured."""
    return _checked_row(task, strict=True, derive=True)


def default_audit_path(checkpoint_path) -> str:
    """Where a sweep's audit bundle lives when the caller names only the
    checkpoint: right alongside it, with an ``.audit`` suffix."""
    return os.fspath(checkpoint_path) + ".audit"


def robust_guarantee_sweep(
    messenger_counts: Sequence[int],
    losses: Sequence[FractionLike],
    builders: Optional[Dict[str, Builder]] = None,
    epsilon: FractionLike = Fraction(99, 100),
    max_workers: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    checkpoint_path=None,
    strict: bool = False,
    faults: Optional[FaultPlan] = None,
    audit: bool = False,
) -> List[SweepRow]:
    """The guarantee sweep of Section 8 on the fault-tolerant engine.

    Row-for-row identical to :func:`repro.attack.sweep.guarantee_sweep`
    (same task enumeration, same order, same exact Fractions), with
    bounded retries, worker-crash recovery and per-task ``timeout`` from
    :func:`repro.robustness.engine.run_tasks`.  With ``checkpoint_path``
    every completed row streams to a JSONL checkpoint and previously
    completed rows are loaded and skipped, so resuming a killed sweep is
    calling this again with the same arguments; ``strict=True`` validates
    every built system against the paper's structural invariants before
    measuring it.  ``faults`` wraps the sweep's own per-task payload in
    a :class:`~repro.robustness.faults.FaultInjectingTask`, so the chaos
    tests fire their scheduled raises, kills and delays on the path a
    healthy sweep runs.  Pool workers compute on the default ``bitmask``
    engine; a caller's :func:`~repro.probability.use_backend` block
    reaches only in-process (``max_workers=1``) tasks.  Rows are
    backend-independent, so checkpoints resume across engines.

    ``audit=True`` (opt-in, default off) additionally chains every
    completed row into a ``repro-audit/1`` Merkle bundle at
    :func:`default_audit_path` (``<checkpoint>.audit``, the name by which
    ``tools/verifyaudit`` finds the checkpoint): each leaf binds the
    task fingerprint, the exact row payload, and the root of the row's
    threshold derivation.  Whichever process computes a row -- a pool
    worker, the in-process fallback, or this process under
    ``max_workers=1`` -- derives it from the same build of the system
    (:func:`_audited_sweep_row_of`), and this process chains the pair
    that comes back.  No row is re-derived here: the evidence is
    ``tools/verifyaudit``'s replay tier, which rebuilds each replayed
    leaf's system from its task fingerprint and checks the row against
    the derivation.  Resuming continues the existing chain; a
    checkpoint row without a leaf (a kill between the two appends) is
    not done, so it re-runs and appends a second checkpoint record equal
    to its first.  Auditing requires a ``checkpoint_path`` (the bundle
    cross-checks it) and never changes the returned rows.
    """
    tasks = sweep_tasks(messenger_counts, losses, builders, epsilon)
    if audit and checkpoint_path is None:
        raise ValueError(
            "audit=True requires checkpoint_path: the audit bundle is "
            "verified against the checkpoint it shadows"
        )
    if audit:
        task_function = (
            _strict_audited_sweep_row_of if strict else _audited_sweep_row_of
        )
    else:
        task_function = strict_sweep_row_of if strict else sweep_row_of
    if faults is not None:
        task_function = FaultInjectingTask(inner=task_function, plan=faults)
    checkpoint = SweepCheckpoint(checkpoint_path) if checkpoint_path is not None else None
    completed = checkpoint.load(tasks) if checkpoint is not None else {}
    if audit:
        writer = AuditBundleWriter(default_audit_path(checkpoint_path))
        chained = writer.leaf_indexes()
        completed = {
            index: (row, None) for index, row in completed.items() if index in chained
        }
    on_result = None
    if checkpoint is not None:
        def on_result(index: int, result) -> None:
            row, derivation = result if audit else (result, None)
            checkpoint.append(index, tasks[index], row)
            if audit:
                writer.append(
                    index, task_fingerprint(tasks[index]), json_ready(row), derivation
                )
    results = run_tasks(
        task_function,
        tasks,
        max_workers=max_workers,
        policy=policy,
        timeout=timeout,
        completed=completed,
        on_result=on_result,
    )
    return [row for row, _derivation in results] if audit else results
