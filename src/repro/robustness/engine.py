"""Fault-tolerant task engine behind the robust guarantee sweeps.

The one process-pool runner of the reproduction.  It fans tasks across a
:class:`~concurrent.futures.ProcessPoolExecutor` with per-task fault
tolerance:

* **Bounded retries with deterministic backoff.**  Each task gets up to
  :attr:`RetryPolicy.max_attempts` tries; the delay before a retry is an
  exponential backoff with *seeded* jitter (:meth:`RetryPolicy.backoff_delay`
  is a pure function of ``(seed, task index, attempt)``), so two runs of
  the same sweep sleep the same amounts.  Delays only affect timing --
  results carry no wall-clock dependence whatsoever.
* **Worker-crash recovery.**  A dead worker breaks the whole
  :class:`~concurrent.futures.ProcessPoolExecutor`; the engine harvests
  every result that finished before the crash, requeues only the
  *incomplete* tasks onto a fresh pool, and keeps going.
* **Per-task timeouts.**  A task that exceeds ``timeout`` seconds costs
  one attempt; a stuck worker is abandoned with its pool and the task is
  requeued elsewhere.
* **Terminal errors that name the task.**  When retries run out the
  engine raises :class:`~repro.errors.RetryExhaustedError` (or
  :class:`~repro.errors.TaskTimeoutError` if the final attempt timed
  out) carrying the task's index, the task itself, and the full
  chronological attempt log.

Task exceptions never travel through the pool as raised exceptions: the
worker wraps them in a :class:`_TaskOutcome` envelope, so any exception
that *does* surface from a future is pool infrastructure by construction
(see :data:`POOL_INFRASTRUCTURE_ERRORS`) and degrades to in-process
execution without re-running completed tasks.

Results are returned in the deterministic serial task order regardless
of which worker finished first, which keeps the Proposition 11 sweep
rows row-for-row identical to the serial sweep.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pickle import PicklingError
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar

from ..errors import RetryExhaustedError, TaskTimeoutError, WorkerTaskError
from ..obs.clock import monotonic
from ..obs.recorder import NULL_RECORDER, Recorder, get_recorder
from ..obs.snapshot import ObsDeltaCapture, merge_worker_delta

__all__ = [
    "POOL_INFRASTRUCTURE_ERRORS",
    "RetryPolicy",
    "TaskAttempt",
    "TaskContext",
    "run_tasks",
]

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")

#: Errors that mean "this process pool cannot run the payload" rather
#: than "the task failed": pool creation refused by the OS or platform,
#: or a payload that cannot cross the process boundary (CPython raises
#: AttributeError/TypeError, not just PicklingError, for closures and
#: unpicklable state).  Because task exceptions come back inside the
#: :class:`_TaskOutcome` envelope, an exception of one of these types
#: raised *from a future* is infrastructure by construction; the engine
#: then finishes the incomplete tasks in-process.
POOL_INFRASTRUCTURE_ERRORS = (
    OSError,
    NotImplementedError,
    PicklingError,
    AttributeError,
    TypeError,
)

_MASK64 = (1 << 64) - 1


def _unit_jitter(seed: int, index: int, attempt: int) -> float:
    """A deterministic pseudo-uniform value in ``[0, 1)``.

    Deterministic. SplitMix64-style integer mixing of ``(seed, index,
    attempt)``: the jitter is a pure function of its arguments, so
    backoff schedules are reproducible run-over-run without any global
    random state.
    """
    value = (
        seed * 0x9E3779B97F4A7C15
        + index * 0xBF58476D1CE4E5B9
        + attempt * 0x94D049BB133111EB
        + 0xD6E8FEB86659FD93
    ) & _MASK64
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & _MASK64
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & _MASK64
    value ^= value >> 31
    return value / 2**64


@dataclass(frozen=True)
class TaskContext:
    """Identity of one execution attempt: which task, which retry.

    Passed as a second argument to task functions that opt in by setting
    a truthy ``wants_context`` attribute -- the hook the deterministic
    fault injectors of :mod:`repro.robustness.faults` use to key their
    schedules by ``(index, attempt)``.
    """

    index: int
    attempt: int


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    ``backoff_delay`` grows as ``base_delay * backoff_factor ** attempt``
    (capped at ``max_delay``) and is then shrunk by up to ``jitter`` of
    itself using seeded mixing -- never expanded -- so the configured
    ``max_delay`` stays an upper bound.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff_factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("a retry policy needs at least one attempt")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be nonnegative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must lie in [0, 1]")

    def backoff_delay(self, index: int, attempt: int) -> float:
        """Seconds to wait before retrying task ``index`` after ``attempt``.

        Deterministic. Same policy, same task, same attempt -> same
        delay; the float is a *schedule* (like ``time.sleep``), never a
        result, so it stays outside the exactness contracts.
        """
        raw = min(self.base_delay * self.backoff_factor**attempt, self.max_delay)
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        return raw * (1.0 - self.jitter * _unit_jitter(self.seed, index, attempt))


@dataclass(frozen=True)
class TaskAttempt:
    """One entry of a task's attempt log.

    ``outcome`` is ``"ok"``, ``"raised"``, ``"timeout"`` or
    ``"worker-lost"``; ``backoff`` is the delay scheduled before the
    *next* attempt (0.0 for the last or a successful one).
    """

    attempt: int
    outcome: str
    error: str = ""
    backoff: float = 0.0


#: Counter name bumped per failed attempt, keyed by its logged outcome.
_OUTCOME_COUNTERS = {
    "raised": "engine.raised",
    "timeout": "engine.timeouts",
    "worker-lost": "engine.worker_lost",
}


@dataclass(frozen=True)
class _TaskOutcome:
    """Worker-side envelope: task results and task errors are both data.

    ``error`` holds the original exception when it survives a pickle
    round-trip; otherwise ``error_text`` alone carries its worker-side
    description.  When the parent asked for telemetry shipping,
    ``obs_delta`` carries the attempt's observation delta
    (:class:`~repro.obs.snapshot.ObsDeltaCapture`) and ``worker`` the
    pid that computed it -- attached to failures too, so a raising
    attempt's partial work stays attributable.
    """

    ok: bool
    value: object = None
    error: Optional[BaseException] = None
    error_text: str = ""
    obs_delta: Optional[Dict] = None
    worker: Optional[int] = None


def _describe_error(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def _capture_failure(error: BaseException) -> _TaskOutcome:
    # A full round-trip check: some exceptions pickle fine but explode on
    # *unpickling* (e.g. a custom __init__ with required arguments), which
    # would surface in the parent as a bogus infrastructure error when the
    # future's result is deserialized.
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        return _TaskOutcome(ok=False, error=None, error_text=_describe_error(error))
    return _TaskOutcome(ok=False, error=error, error_text=_describe_error(error))


def _call(function: Callable, task, index: int, attempt: int):
    """Invoke a task function, passing a :class:`TaskContext` on opt-in."""
    if getattr(function, "wants_context", False):
        return function(task, TaskContext(index=index, attempt=attempt))
    return function(task)


def _execute_task(payload: Tuple[Callable, object, int, int, bool]) -> _TaskOutcome:
    """Module-level worker entry point (picklable by reference).

    The trailing ``ship_obs`` payload flag is set by the parent exactly
    when it has a real recorder installed: the attempt then runs under
    an :class:`~repro.obs.snapshot.ObsDeltaCapture` and the envelope
    carries the observation delta home.  With the flag off the path is
    unchanged -- uninstrumented sweeps pay nothing.
    """
    function, task, index, attempt, ship_obs = payload
    capture = ObsDeltaCapture() if ship_obs else None
    try:
        if capture is not None:
            with capture:
                value = _call(function, task, index, attempt)
        else:
            value = _call(function, task, index, attempt)
    except Exception as error:
        outcome = _capture_failure(error)
    else:
        outcome = _TaskOutcome(ok=True, value=value)
    if capture is not None:
        outcome = replace(outcome, obs_delta=capture.delta, worker=capture.worker)
    return outcome


def _short_repr(value, limit: int = 200) -> str:
    text = repr(value)
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text


class _EngineState:
    """Book-keeping shared by the pool and serial execution paths."""

    def __init__(
        self,
        function: Callable,
        tasks: Sequence,
        policy: RetryPolicy,
        timeout: Optional[float],
        on_result: Optional[Callable[[int, object], None]],
        sleep: Callable[[float], None],
    ) -> None:
        self.function = function
        self.tasks = tasks
        self.policy = policy
        self.timeout = timeout
        self.on_result = on_result
        self._sleep = sleep
        self.results: Dict[int, object] = {}
        self.attempt_log: Dict[int, List[TaskAttempt]] = {}
        self._next_attempt: Dict[int, int] = {}
        # Captured once per run: every attempt/retry/recovery observation
        # of this engine invocation reports to the same recorder.
        self.recorder: Recorder = get_recorder()
        # Workers only capture-and-ship deltas when someone is listening;
        # the identity check keeps the uninstrumented path byte-for-byte
        # what it was.
        self.ship_obs = self.recorder is not NULL_RECORDER

    def register(self, index: int) -> None:
        self._next_attempt[index] = 0

    def attempt_number(self, index: int) -> int:
        return self._next_attempt[index]

    def has_incomplete(self) -> bool:
        return bool(self._next_attempt)

    def incomplete_indices(self) -> List[int]:
        """Incomplete task indexes in deterministic (serial) order."""
        return sorted(self._next_attempt)

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self._sleep(seconds)

    def record_success(self, index: int, attempt: int, value) -> None:
        self.attempt_log.setdefault(index, []).append(
            TaskAttempt(attempt=attempt, outcome="ok")
        )
        self.results[index] = value
        self._next_attempt.pop(index, None)
        recorder = self.recorder
        recorder.counter("engine.attempts")
        recorder.counter("engine.tasks_ok")
        recorder.event("task_attempt", index=index, attempt=attempt, outcome="ok")
        if self.on_result is not None:
            self.on_result(index, value)

    def record_failure(
        self,
        index: int,
        attempt: int,
        outcome: str,
        error_text: str,
        cause: Optional[BaseException] = None,
    ) -> float:
        """Count a failed attempt; schedule the retry or raise terminally.

        Returns the backoff delay to apply before the retry.  Raises
        :class:`TaskTimeoutError` when the final attempt timed out and
        :class:`RetryExhaustedError` for any other exhausted failure,
        both carrying the task identity and full attempt log.
        """
        exhausted = attempt + 1 >= self.policy.max_attempts
        backoff = 0.0 if exhausted else self.policy.backoff_delay(index, attempt)
        log = self.attempt_log.setdefault(index, [])
        log.append(
            TaskAttempt(attempt=attempt, outcome=outcome, error=error_text, backoff=backoff)
        )
        recorder = self.recorder
        recorder.counter("engine.attempts")
        recorder.counter(_OUTCOME_COUNTERS.get(outcome, f"engine.{outcome}"))
        recorder.event(
            "task_attempt",
            index=index,
            attempt=attempt,
            outcome=outcome,
            error=error_text,
            backoff=backoff,
        )
        if exhausted:
            recorder.event(
                "task_exhausted", index=index, attempts=len(log), outcome=outcome
            )
            message = (
                f"task {index} ({_short_repr(self.tasks[index])}) failed after "
                f"{len(log)} recorded attempt(s); last outcome: {outcome}"
                + (f" ({error_text})" if error_text else "")
            )
            details = {
                "task_index": index,
                "task": self.tasks[index],
                "attempts": tuple(log),
            }
            if outcome == "timeout":
                raise TaskTimeoutError(message, **details) from cause
            raise RetryExhaustedError(message, **details) from cause
        recorder.counter("engine.retries")
        self._next_attempt[index] = attempt + 1
        return backoff

    def record_outcome(self, index: int, attempt: int, outcome: _TaskOutcome) -> float:
        """Fold a worker envelope into the state; returns any backoff.

        The shipped observation delta (if any) merges first, exactly
        once: the pool loop reads each future at most once, and killed
        workers never produced an envelope, so retries and kills cannot
        double-count a single attempt's work.
        """
        if outcome.obs_delta is not None:
            merge_worker_delta(
                self.recorder,
                outcome.obs_delta,
                worker=outcome.worker,
                index=index,
                attempt=attempt,
            )
        if outcome.ok:
            self.record_success(index, attempt, outcome.value)
            return 0.0
        cause = outcome.error
        if cause is None:
            # The exception could not cross the process boundary; its
            # worker-side description still does.
            cause = WorkerTaskError(outcome.error_text)
        return self.record_failure(index, attempt, "raised", outcome.error_text, cause=cause)


def _fall_back(state: _EngineState, reason: str) -> None:
    """Record that the remaining tasks go to the in-process pass."""
    state.recorder.counter("engine.pool_fallbacks")
    state.recorder.event(
        "pool_fallback", reason=reason, remaining=len(state.incomplete_indices())
    )


def _payload_pickles(state: _EngineState) -> bool:
    """Whether the function and every incomplete task survive pickling.

    Probed before any pool exists: a payload that fails to pickle inside
    the executor's feeder thread can leave its work item pending, and the
    abandoned pool's manager thread then blocks interpreter exit.
    """
    try:
        pickle.dumps(state.function)
        for index in state.incomplete_indices():
            pickle.dumps(state.tasks[index])
    except POOL_INFRASTRUCTURE_ERRORS:
        return False
    return True


def _run_pool(state: _EngineState, max_workers: Optional[int]) -> None:
    """Drive incomplete tasks through (a sequence of) process pools.

    Leaves any tasks it cannot place -- pool creation refused, payload
    unpicklable -- incomplete for the serial pass.  Completed results are
    never recomputed, no matter how many pools break underneath us.
    """
    if not _payload_pickles(state):
        _fall_back(state, "payload could not cross the process boundary")
        return
    pool: Optional[ProcessPoolExecutor] = None
    try:
        while state.has_incomplete():
            if pool is None:
                try:
                    pool = ProcessPoolExecutor(max_workers=max_workers)
                except POOL_INFRASTRUCTURE_ERRORS:
                    _fall_back(state, "process pool creation refused")
                    return
            pending = state.incomplete_indices()
            submitted: Dict[int, int] = {}
            futures = {}
            try:
                for index in pending:
                    attempt = state.attempt_number(index)
                    submitted[index] = attempt
                    futures[index] = pool.submit(
                        _execute_task,
                        (
                            state.function,
                            state.tasks[index],
                            index,
                            attempt,
                            state.ship_obs,
                        ),
                    )
            except (BrokenProcessPool, RuntimeError):
                # The pool died between rounds; tasks not yet submitted
                # have consumed no attempt.  Rebuild and retry them.
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
                pending = list(submitted)
            round_backoff = 0.0
            abandon = False
            fall_back = False
            handled = 0
            for position, index in enumerate(pending):
                future = futures[index]
                try:
                    outcome = future.result(timeout=state.timeout)
                except _FutureTimeoutError:
                    round_backoff = max(
                        round_backoff,
                        state.record_failure(
                            index,
                            submitted[index],
                            "timeout",
                            f"no result within {state.timeout}s",
                        ),
                    )
                    if future.cancel():
                        handled = position + 1
                        continue
                    # The worker is stuck mid-task: abandon this pool and
                    # requeue everything unresolved on a fresh one.
                    abandon = True
                    handled = position + 1
                    break
                except BrokenProcessPool:
                    round_backoff = max(
                        round_backoff,
                        state.record_failure(
                            index, submitted[index], "worker-lost", "process pool broke"
                        ),
                    )
                    abandon = True
                    handled = position + 1
                    break
                except POOL_INFRASTRUCTURE_ERRORS:
                    # Payload could not cross the process boundary; the
                    # envelope guarantees task errors never surface here.
                    fall_back = True
                    handled = position + 1
                    break
                round_backoff = max(
                    round_backoff, state.record_outcome(index, submitted[index], outcome)
                )
                handled = position + 1
            if abandon or fall_back:
                # Harvest whatever finished before the pool went down.
                # Only tasks whose worker actually died (BrokenProcessPool)
                # are charged a lost attempt; tasks merely queued or mid-
                # flight on a healthy worker of an abandoned pool never
                # failed and are requeued free of charge.
                for index in pending[handled:]:
                    future = futures[index]
                    try:
                        outcome = future.result(timeout=0)
                    except _FutureTimeoutError:
                        continue
                    except BrokenProcessPool:
                        round_backoff = max(
                            round_backoff,
                            state.record_failure(
                                index,
                                submitted[index],
                                "worker-lost",
                                "worker died before reporting a result",
                            ),
                        )
                    except POOL_INFRASTRUCTURE_ERRORS:
                        fall_back = True
                    else:
                        round_backoff = max(
                            round_backoff,
                            state.record_outcome(index, submitted[index], outcome),
                        )
                if pool is not None:
                    pool.shutdown(wait=False, cancel_futures=True)
                pool = None
                if not fall_back and state.has_incomplete():
                    state.recorder.counter("engine.pool_recoveries")
                    state.recorder.event(
                        "pool_recovery",
                        requeued=len(state.incomplete_indices()),
                    )
            state.sleep(round_backoff)
            if fall_back:
                _fall_back(state, "payload could not cross the process boundary")
                return
    finally:
        if pool is not None:
            # Never wait on workers here: when record_failure raises
            # terminally for a stuck task, waiting would block the raise
            # until the hung worker finishes -- exactly what the per-task
            # timeout exists to prevent.
            pool.shutdown(wait=False, cancel_futures=True)


def _run_serial(state: _EngineState) -> None:
    """Finish every incomplete task in-process, with the same retry rules."""
    for index in state.incomplete_indices():
        while index not in state.results:
            attempt = state.attempt_number(index)
            started = monotonic()
            try:
                value = _call(state.function, state.tasks[index], index, attempt)
            except Exception as error:
                state.sleep(
                    state.record_failure(
                        index, attempt, "raised", _describe_error(error), cause=error
                    )
                )
                continue
            elapsed = monotonic() - started
            if state.timeout is not None and elapsed > state.timeout:
                # In-process execution cannot preempt a task; overruns are
                # detected after the fact and still cost an attempt, so
                # serial and pool runs agree on what "timed out" means.
                state.sleep(
                    state.record_failure(
                        index,
                        attempt,
                        "timeout",
                        f"took {elapsed:.3f}s (> {state.timeout}s)",
                    )
                )
                continue
            state.record_success(index, attempt, value)


def run_tasks(
    function: Callable[..., _Result],
    tasks: Sequence[_Task],
    max_workers: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    completed: Optional[Mapping[int, _Result]] = None,
    on_result: Optional[Callable[[int, _Result], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> List[_Result]:
    """Run ``function`` over ``tasks`` fault-tolerantly, in task order.

    Parameters
    ----------
    function:
        A picklable (module-level or picklable-dataclass) callable.  If it
        exposes a truthy ``wants_context`` attribute it is called as
        ``function(task, TaskContext(index, attempt))``.
    tasks:
        The deterministic task list; a task's identity is its index.
    max_workers:
        ``1`` forces in-process execution; ``None`` lets the pool choose.
    policy:
        The :class:`RetryPolicy`; defaults to three attempts.
    timeout:
        Per-task timeout in seconds (``None`` disables).
    completed:
        Already-computed ``index -> result`` entries (e.g. from a
        checkpoint); they are returned verbatim, never re-run, and not
        re-reported through ``on_result``.
    on_result:
        Callback invoked in the parent process as each task completes --
        the streaming hook checkpoints attach to.
    sleep:
        Injectable sleeper for the backoff delays (tests pass a stub, so
        chaos suites never wait on real clocks).

    Returns the results in the order of ``tasks`` -- identical to
    ``[function(task) for task in tasks]`` whenever that serial run would
    succeed.
    """
    task_list = list(tasks)
    if max_workers is not None and max_workers < 1:
        raise ValueError("run_tasks needs at least one worker")
    state = _EngineState(
        function,
        task_list,
        policy or RetryPolicy(),
        timeout,
        on_result,
        sleep,
    )
    if completed:
        for index, value in completed.items():
            position = int(index)
            if 0 <= position < len(task_list):
                state.results[position] = value
    for index in range(len(task_list)):
        if index not in state.results:
            state.register(index)
    with state.recorder.span(
        "run_tasks", tasks=len(task_list), pending=len(state.incomplete_indices())
    ):
        if max_workers != 1 and len(state.incomplete_indices()) > 1:
            _run_pool(state, max_workers)
        _run_serial(state)
    return [state.results[index] for index in range(len(task_list))]
