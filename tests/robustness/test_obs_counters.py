"""Chaos accounting: obs counters must equal the engine's attempt log.

The sweep engine already proves (tests/robustness/test_engine.py) that
seeded faults do not change results.  This suite proves the *telemetry*
is exact under the same chaos: every ``engine.*`` counter and every
``task_attempt`` trace event corresponds one-to-one with an entry of
the engine's own :class:`TaskAttempt` log -- no attempt is dropped,
double-counted, or misattributed by the observability layer.
"""

import os
import shutil
from fractions import Fraction

from repro.attack.sweep import guarantee_sweep, sweep_row_of, sweep_tasks
from repro.obs import MetricsRecorder, MultiRecorder, TraceRecorder, read_trace, use_recorder
from repro.robustness import RetryPolicy, run_tasks
from repro.testing import FaultInjectingTask, FaultPlan

MESSENGERS = [1, 2]
LOSSES = [Fraction(1, 2)]
POLICY = RetryPolicy(max_attempts=4, base_delay=0.0, seed=5)


def _export_artifact(path):
    """Copy a trace into CHAOS_ARTIFACT_DIR for the CI artifact."""
    target_dir = os.environ.get("CHAOS_ARTIFACT_DIR")
    if not target_dir:
        return
    os.makedirs(target_dir, exist_ok=True)
    shutil.copy(path, os.path.join(target_dir, os.path.basename(path)))


def _chaos_run(tmp_path, plan):
    """One seeded chaos sweep; returns (rows, metrics, trace records)."""
    tasks = sweep_tasks(MESSENGERS, LOSSES)
    trace_path = tmp_path / "chaos-trace.jsonl"
    metrics = MetricsRecorder()
    attempt_log = {}

    def spy(task, context):
        attempt_log.setdefault(context.index, []).append(context.attempt)
        return FaultInjectingTask(sweep_row_of, plan)(task, context)

    spy.wants_context = True

    trace = TraceRecorder(trace_path)
    with use_recorder(MultiRecorder([metrics, trace])):
        rows = run_tasks(
            spy,
            tasks,
            max_workers=1,
            policy=POLICY,
        )
    trace.close()
    _export_artifact(trace_path)
    return tasks, rows, attempt_log, metrics, read_trace(trace_path)


def test_counters_match_the_attempt_log_exactly(tmp_path):
    plan = FaultPlan.from_seed(
        seed=13, task_count=6, kinds=("raise",), rate=0.6, max_faulty_attempts=3
    )
    tasks, rows, attempt_log, metrics, records = _chaos_run(tmp_path, plan)

    # Chaos never changes results (the engine's own guarantee) ...
    assert rows == [sweep_row_of(task) for task in tasks]

    # ... and the counters agree with what actually executed.
    executed = sum(len(attempts) for attempts in attempt_log.values())
    failed = len(plan)  # every scheduled raise-fault consumed one attempt
    counters = metrics.counters
    assert counters["engine.attempts"] == executed
    assert counters["engine.tasks_ok"] == len(tasks)
    assert counters["engine.raised"] == failed
    assert counters["engine.retries"] == failed
    assert counters["event:task_attempt"] == executed
    assert "engine.timeouts" not in counters
    assert "engine.worker_lost" not in counters


def test_trace_events_mirror_task_attempts_one_to_one(tmp_path):
    plan = FaultPlan.from_seed(
        seed=29, task_count=6, kinds=("raise",), rate=0.5, max_faulty_attempts=2
    )
    tasks, _rows, attempt_log, _metrics, records = _chaos_run(tmp_path, plan)

    events = [
        record["fields"]
        for record in records
        if record["type"] == "event" and record["kind"] == "task_attempt"
    ]
    observed = {}
    for fields in events:
        observed.setdefault(fields["index"], []).append(fields["attempt"])
    assert observed == attempt_log

    # Outcomes follow the plan: scheduled attempts raised, the rest ok.
    for fields in events:
        scheduled = plan.fault_for(fields["index"], fields["attempt"])
        assert fields["outcome"] == ("raised" if scheduled else "ok")
        if scheduled:
            assert "InjectedFault" in fields["error"]
            # The recorded backoff is the policy's deterministic delay.
            assert fields["backoff"] == POLICY.backoff_delay(
                fields["index"], fields["attempt"]
            )


def test_fault_free_run_counts_one_attempt_per_task(tmp_path):
    tasks, rows, attempt_log, metrics, records = _chaos_run(tmp_path, FaultPlan())
    assert metrics.counters["engine.attempts"] == len(tasks)
    assert metrics.counters["engine.tasks_ok"] == len(tasks)
    assert "engine.retries" not in metrics.counters
    assert rows == guarantee_sweep(MESSENGERS, LOSSES)
