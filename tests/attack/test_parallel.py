"""Process-pool fan-out: ``run_tasks`` as an order-preserving map, and the
guarantee sweep on it (same rows as the serial sweep)."""

import os
from fractions import Fraction

import pytest

from repro.attack import build_ca2, guarantee_sweep
from repro.errors import RetryExhaustedError, WorkerTaskError
from repro.robustness import RetryPolicy, robust_guarantee_sweep, run_tasks

#: One attempt per task: a task error is terminal on its first run, so
#: the execution logs below count re-runs, not retries.
_ONE_ATTEMPT = RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0)


def _square(value: int) -> int:
    return value * value


def _fraction_half(value: int) -> Fraction:
    return Fraction(value, 2)


def _log_then_maybe_boom(item):
    """Append one line per execution, then fail on the 'boom' item.

    The log file proves how many times each task actually ran: a runner
    that treated a worker-side TypeError as a pool failure would re-run
    every task in-process, doubling the count.
    """
    log_path, label = item
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(label + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    if label == "boom":
        raise TypeError("worker task raised a pool-lookalike error")
    return label


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("unpicklable")
        self.handle = lambda: None


def _raise_unpicklable(item):
    raise _Unpicklable()


class _LoadsPoisoned(Exception):
    """Pickles fine, but unpickling calls ``__init__`` with too few args."""

    def __init__(self, message, detail):
        super().__init__(message)  # args == (message,): loads() TypeErrors
        self.detail = detail


def _log_then_maybe_poison(item):
    log_path, label = item
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(label + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    if label == "boom":
        raise _LoadsPoisoned("dumps fine, loads raises", "detail")
    return label


def _executions(log_path):
    with open(log_path, "r", encoding="utf-8") as handle:
        return sorted(handle.read().split())


class TestParallelMap:
    def test_preserves_input_order(self):
        assert run_tasks(_square, [3, 1, 2], max_workers=2) == [9, 1, 4]

    def test_exact_fractions_cross_the_process_boundary(self):
        assert run_tasks(_fraction_half, [1, 2, 3], max_workers=2) == [
            Fraction(1, 2),
            Fraction(1),
            Fraction(3, 2),
        ]

    def test_serial_when_single_worker(self):
        # a closure only sees its own process's list: every call landing
        # in it proves the map ran in-process
        seen = []

        def square_and_note(value):
            seen.append(value)
            return value * value

        assert run_tasks(square_and_note, [1, 2, 3], max_workers=1) == [1, 4, 9]
        assert seen == [1, 2, 3]

    def test_empty_and_singleton(self):
        assert run_tasks(_square, [], max_workers=2) == []
        assert run_tasks(_square, [5], max_workers=2) == [25]

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            run_tasks(_square, [1], max_workers=0)

    def test_unpicklable_function_falls_back_to_serial(self):
        # a closure cannot be pickled; the runner must still return the map
        assert run_tasks(lambda value: value + 1, [1, 2], max_workers=2) == [2, 3]

    def test_task_error_propagates_without_serial_rerun(self, tmp_path):
        # Regression: TypeError is a pool-infrastructure type, so a
        # TypeError raised BY A TASK must come back inside the worker
        # envelope rather than trigger the in-process fallback, which
        # would execute every task twice.  'boom' is last, so the tasks
        # before it have reported when its failure turns terminal.
        log_path = str(tmp_path / "executions.log")
        items = [(log_path, "a"), (log_path, "b"), (log_path, "boom")]
        with pytest.raises(RetryExhaustedError) as excinfo:
            run_tasks(_log_then_maybe_boom, items, max_workers=2, policy=_ONE_ATTEMPT)
        assert excinfo.value.task_index == 2
        assert isinstance(excinfo.value.__cause__, TypeError)
        assert "pool-lookalike" in str(excinfo.value.__cause__)
        assert _executions(log_path) == ["a", "b", "boom"], (
            "each task must execute exactly once; duplicates mean the "
            "runner fell back to a serial re-run"
        )

    def test_unpicklable_task_error_surfaces_as_worker_task_error(self):
        # The error itself cannot cross the process boundary; its
        # worker-side summary still must.
        with pytest.raises(RetryExhaustedError) as excinfo:
            run_tasks(_raise_unpicklable, [1, 2], max_workers=2, policy=_ONE_ATTEMPT)
        cause = excinfo.value.__cause__
        assert isinstance(cause, WorkerTaskError)
        assert "_Unpicklable" in str(cause)

    def test_loads_poisoned_task_error_no_serial_rerun(self, tmp_path):
        # Regression: an exception that pickles but fails to UNpickle
        # would blow up while the parent deserializes the result and be
        # misread as pool infrastructure.  The worker checks the full
        # pickle round-trip and ships the text summary instead, so each
        # task still executes exactly once.
        log_path = str(tmp_path / "executions.log")
        items = [(log_path, "a"), (log_path, "b"), (log_path, "boom")]
        with pytest.raises(RetryExhaustedError) as excinfo:
            run_tasks(_log_then_maybe_poison, items, max_workers=2, policy=_ONE_ATTEMPT)
        cause = excinfo.value.__cause__
        assert isinstance(cause, WorkerTaskError)
        assert "_LoadsPoisoned" in str(cause)
        assert _executions(log_path) == ["a", "b", "boom"], (
            "each task must execute exactly once; duplicates mean the "
            "runner fell back to a serial re-run"
        )


class TestParallelSweep:
    def test_rows_match_serial_sweep_exactly(self):
        counts, losses = [1, 2], [Fraction(1, 2)]
        assert robust_guarantee_sweep(
            counts, losses, max_workers=2
        ) == guarantee_sweep(counts, losses)

    def test_custom_builders_respected(self):
        rows = robust_guarantee_sweep(
            [1], [Fraction(1, 2)], builders={"CA2": build_ca2}, max_workers=2
        )
        assert [row.protocol for row in rows] == ["CA2"]
        assert all(type(row.post_threshold) is Fraction for row in rows)
