"""The fault-tolerant task engine: retries, backoff, recovery, terminal errors."""

import os
import time
from fractions import Fraction

import pytest

from repro.errors import RetryExhaustedError, TaskTimeoutError
from repro.obs import MetricsRecorder, use_recorder
from repro.robustness import RetryPolicy, TaskContext, run_tasks
from repro.robustness.engine import _EngineState, _run_pool, _run_serial
from repro.testing import Fault, FaultInjectingTask, FaultPlan


def _square(value: int) -> int:
    return value * value


def _fraction_half(value: int) -> Fraction:
    return Fraction(value, 2)


def _is_callable(value) -> bool:
    return callable(value)


def _boom(value: int) -> int:
    raise ValueError(f"task {value} always fails")


def _sleepy(value: float) -> float:
    time.sleep(value)
    return value


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("unpicklable")
        self.handle = lambda: None  # closures cannot cross the boundary


def _raise_unpicklable(value):
    raise _Unpicklable()


class _LoadsPoisoned(Exception):
    """Pickles fine, but unpickling calls ``__init__`` with too few args."""

    def __init__(self, message, detail):
        super().__init__(message)  # args == (message,): loads() TypeErrors
        self.detail = detail


def _log_then_maybe_poison(item):
    """Append one line per execution, then raise on the 'boom' and
    'type' labels.

    The log file counts how many times each task actually ran, pinning
    down any fallback path that re-executes tasks.
    """
    log_path, label = item
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(label + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    if label == "boom":
        raise _LoadsPoisoned("dumps fine, loads raises", "detail")
    if label == "type":
        raise TypeError("task raised a pool-infrastructure lookalike")
    return label


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy(seed=42)
        first = [policy.backoff_delay(index, attempt) for index in range(4) for attempt in range(3)]
        second = [policy.backoff_delay(index, attempt) for index in range(4) for attempt in range(3)]
        assert first == second

    def test_backoff_without_jitter_is_pure_exponential(self):
        policy = RetryPolicy(base_delay=0.1, backoff_factor=2.0, max_delay=10.0, jitter=0.0)
        assert policy.backoff_delay(0, 0) == pytest.approx(0.1)
        assert policy.backoff_delay(0, 1) == pytest.approx(0.2)
        assert policy.backoff_delay(5, 2) == pytest.approx(0.4)

    def test_jitter_never_exceeds_the_cap(self):
        policy = RetryPolicy(base_delay=1.0, backoff_factor=3.0, max_delay=2.0, jitter=0.5, seed=7)
        for index in range(8):
            for attempt in range(4):
                delay = policy.backoff_delay(index, attempt)
                assert 0.0 <= delay <= 2.0

    def test_seed_changes_the_schedule(self):
        one = RetryPolicy(seed=1).backoff_delay(3, 1)
        two = RetryPolicy(seed=2).backoff_delay(3, 1)
        assert one != two

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)


@pytest.fixture
def pool_constructions(monkeypatch):
    """Replace the engine's executor by a stub that logs construction.

    The stub then refuses like an OS without process support, so the
    engine finishes in-process either way and only the log tells whether
    a pool was attempted.
    """
    constructed = []

    def refusing_executor(*args, **kwargs):
        constructed.append(kwargs)
        raise OSError("process pools are stubbed out in this test")

    monkeypatch.setattr("repro.robustness.engine.ProcessPoolExecutor", refusing_executor)
    return constructed


class TestRunTasksBasics:
    def test_matches_serial_map_in_order(self):
        assert run_tasks(_square, [3, 1, 2], max_workers=1) == [9, 1, 4]
        assert run_tasks(_square, [3, 1, 2]) == [9, 1, 4]

    def test_empty_task_list(self):
        assert run_tasks(_square, []) == []
        assert run_tasks(_square, [5]) == [25]

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            run_tasks(_square, [1], max_workers=0)

    def test_exact_fractions_cross_the_pool(self):
        def half(value):
            return Fraction(value, 2)

        expected = [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
        # a module-level function crosses a real pool and back
        assert run_tasks(_fraction_half, [1, 2, 3], max_workers=2) == expected
        # a closure cannot be pickled: with the pool requested the engine
        # falls back in-process and still returns the same map
        assert run_tasks(half, [1, 2, 3], max_workers=2) == expected
        assert run_tasks(half, [1, 2, 3], max_workers=1) == expected

    def test_unpicklable_payload_never_starts_a_pool(self, pool_constructions):
        # A payload that fails to pickle inside the executor's feeder
        # thread can leave a work item pending and hang interpreter exit,
        # so the engine must probe it before any pool exists.
        metrics = MetricsRecorder()
        with use_recorder(metrics):
            assert run_tasks(lambda value: value + 1, [1, 2], max_workers=2) == [2, 3]
        assert pool_constructions == []
        assert metrics.counters["engine.pool_fallbacks"] == 1
        assert metrics.counters["event:pool_fallback"] == 1

    def test_unpicklable_task_never_starts_a_pool(self, pool_constructions):
        tasks = [1, lambda: None]
        assert run_tasks(_is_callable, tasks, max_workers=2) == [False, True]
        assert pool_constructions == []

    def test_completed_tasks_are_never_rerun(self):
        calls = []

        def record(value):
            calls.append(value)
            return value * 10

        results = run_tasks(
            record, [1, 2, 3], max_workers=1, completed={1: 999}
        )
        assert results == [10, 999, 30]
        assert calls == [1, 3]

    def test_on_result_streams_only_new_results(self):
        seen = []
        results = run_tasks(
            _square,
            [2, 3, 4],
            max_workers=1,
            completed={0: 4},
            on_result=lambda index, value: seen.append((index, value)),
        )
        assert results == [4, 9, 16]
        assert seen == [(1, 9), (2, 16)]

    def test_context_protocol_passes_index_and_attempt(self):
        contexts = []

        def wants(task, context):
            contexts.append(context)
            return task

        wants.wants_context = True
        assert run_tasks(wants, ["a", "b"], max_workers=1) == ["a", "b"]
        assert contexts == [TaskContext(index=0, attempt=0), TaskContext(index=1, attempt=0)]


class TestRetriesAndTerminalErrors:
    def test_transient_failures_are_retried_to_success(self):
        plan = FaultPlan({(0, 0): Fault("raise"), (0, 1): Fault("raise")})
        task = FaultInjectingTask(inner=_square, plan=plan)
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        assert run_tasks(task, [5, 6], max_workers=1, policy=policy) == [25, 36]

    def test_retry_exhausted_carries_identity_and_attempt_log(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        with pytest.raises(RetryExhaustedError) as excinfo:
            run_tasks(_boom, [7, 8], max_workers=1, policy=policy)
        error = excinfo.value
        assert error.task_index == 0
        assert error.task == 7
        assert len(error.attempts) == 3
        assert [attempt.outcome for attempt in error.attempts] == ["raised"] * 3
        assert all("always fails" in attempt.error for attempt in error.attempts)
        assert isinstance(error.__cause__, ValueError)

    def test_retry_exhausted_in_pool_keeps_original_cause(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        with pytest.raises(RetryExhaustedError) as excinfo:
            run_tasks(_boom, [1, 2, 3], policy=policy)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_unpicklable_task_error_still_attributed(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        with pytest.raises(RetryExhaustedError) as excinfo:
            run_tasks(_raise_unpicklable, [1, 2], policy=policy)
        error = excinfo.value
        assert error.task_index == 0
        assert any("_Unpicklable" in attempt.error for attempt in error.attempts)

    def test_serial_timeout_is_terminal_after_retries(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        with pytest.raises(TaskTimeoutError) as excinfo:
            run_tasks(
                _sleepy, [0.05], max_workers=1, policy=policy, timeout=0.001
            )
        error = excinfo.value
        assert error.task_index == 0
        assert [attempt.outcome for attempt in error.attempts] == ["timeout", "timeout"]


class TestWorkerCrashRecovery:
    def test_killed_worker_requeues_only_incomplete_tasks(self):
        # Task 1 kills its worker on attempts 0 and 1; every completed
        # result must survive the broken pools and the final row list
        # must match the serial map exactly.
        plan = FaultPlan({(1, 0): Fault("kill"), (1, 1): Fault("kill")})
        task = FaultInjectingTask(inner=_square, plan=plan)
        policy = RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0)
        results = run_tasks(task, [2, 3, 4, 5], policy=policy)
        assert results == [4, 9, 16, 25]

    def test_kill_on_final_attempt_is_terminal(self):
        plan = FaultPlan({(0, 0): Fault("kill"), (0, 1): Fault("kill")})
        task = FaultInjectingTask(inner=_square, plan=plan)
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        with pytest.raises(RetryExhaustedError) as excinfo:
            run_tasks(task, [2, 3], policy=policy)
        assert excinfo.value.task_index == 0

    def test_pool_timeout_recovers_on_retry(self):
        # Attempt 0 of task 0 stalls past the timeout; attempt 1 is clean.
        plan = FaultPlan({(0, 0): Fault("delay", delay=1.5)})
        task = FaultInjectingTask(inner=_square, plan=plan)
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        results = run_tasks(task, [6, 7], policy=policy, timeout=0.3)
        assert results == [36, 49]

    def test_terminal_timeout_raises_promptly_despite_stuck_worker(self):
        # Regression: the pool used to be shut down with wait=True on the
        # terminal-raise path, so the TaskTimeoutError for a stuck task
        # did not surface until the hung worker finished -- here, a full
        # 4 seconds despite the 0.3s per-task timeout.
        plan = FaultPlan({(0, 0): Fault("delay", delay=4.0)})
        task = FaultInjectingTask(inner=_square, plan=plan)
        policy = RetryPolicy(max_attempts=1)
        started = time.monotonic()
        with pytest.raises(TaskTimeoutError):
            run_tasks(task, [2, 3], policy=policy, timeout=0.3)
        assert time.monotonic() - started < 3.0

    def test_abandoned_pool_does_not_charge_healthy_tasks(self):
        # Regression: abandoning a pool because one task got stuck used
        # to charge a "worker-lost" attempt to every healthy task still
        # queued or mid-flight on it.  Task 0 stalls past the timeout on
        # attempt 0 while task 1 occupies the other worker and task 2 is
        # still queued; neither may be billed for the abandonment.
        plan = FaultPlan(
            {(0, 0): Fault("delay", delay=2.5), (1, 0): Fault("delay", delay=2.5)}
        )
        task = FaultInjectingTask(inner=_square, plan=plan)
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        state = _EngineState(task, [2, 3, 4], policy, 0.5, None)
        for index in range(3):
            state.register(index)
        _run_pool(state, max_workers=2)
        _run_serial(state)
        assert [state.results[index] for index in range(3)] == [4, 9, 16]
        outcomes = [
            attempt.outcome for log in state.attempt_log.values() for attempt in log
        ]
        assert "worker-lost" not in outcomes
        # The never-faulted task succeeded on its first (and only) attempt.
        assert [attempt.outcome for attempt in state.attempt_log[2]] == ["ok"]
        assert state.attempt_log[2][0].attempt == 0

    def test_loads_poisoned_task_error_counts_attempts_without_rerun(self, tmp_path):
        # Regression: an exception that pickles but fails to UNpickle
        # used to blow up during result deserialization in the parent,
        # get misread as pool infrastructure, and push every incomplete
        # task through the serial path -- re-executing the failing task
        # beyond its attempt budget.  The worker must detect the failed
        # round-trip and ship the text summary instead.  A task-raised
        # TypeError -- a type that means "pool infrastructure" when it
        # surfaces from a future -- must likewise come back in the
        # envelope: exactly max_attempts runs, no serial re-run.
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        for label, error_name in (("boom", "_LoadsPoisoned"), ("type", "TypeError")):
            log_path = str(tmp_path / f"{label}.log")
            with pytest.raises(RetryExhaustedError) as excinfo:
                run_tasks(
                    _log_then_maybe_poison,
                    [(log_path, label), (log_path, "a")],
                    policy=policy,
                )
            error = excinfo.value
            assert error.task_index == 0
            assert any(error_name in attempt.error for attempt in error.attempts)
            with open(log_path, "r", encoding="utf-8") as handle:
                executions = handle.read().split()
            assert executions.count(label) == policy.max_attempts
            assert executions.count("a") == 1
