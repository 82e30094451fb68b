"""Collect machine-readable benchmark timings into ``BENCH_<n>.json``.

``make bench-json`` runs this script.  It executes a curated set of
benchmark workloads with ``time.perf_counter``, tags each record with the
measure backend and system size, and writes one JSON document so the perf
trajectory is comparable PR-over-PR (see ``docs/performance.md`` for how
to read the output).  ``--smoke`` shrinks every parameter so CI can run
the same pipeline in seconds; the script exits nonzero if any benchmark
raises.

Since schema ``repro-bench/2`` every record also carries a ``counters``
snapshot from the observability layer (:mod:`repro.obs`): measure-kernel
cache hits/misses, gfp iteration counts, engine retry totals -- so a
perf regression can be told apart from a workload change (same seconds,
different counters means the workload moved; same counters, different
seconds means the code got slower).  Every record is additionally
stamped with the measure ``backend`` it ran under and the ``points``
count of its system (``None`` for sweep records that span many systems)
-- additive fields, so ``tools/tracediff`` keeps accepting artifacts
written before they existed.  ``--trace PATH`` additionally streams the
whole run as ``repro-trace/1`` JSONL for ``tools/tracereport``, and
``--metrics PATH`` streams one ``repro-metrics/1`` snapshot per
workload (labelled by benchmark) for ``tools/reprotop`` /
``tracereport --metrics``.

All probabilities in the report stay exact: Fractions are serialised as
``"p/q"`` strings.  Wall-clock seconds are, of course, floats.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from repro.attack import guarantee_sweep  # noqa: E402
from repro.obs import (  # noqa: E402
    MetricsRecorder,
    MetricsSnapshotWriter,
    MultiRecorder,
    take_snapshot,
    use_recorder,
)
from repro.probability import (  # noqa: E402
    get_default_backend,
    kernel_totals,
    reset_kernel_totals,
    use_backend,
)
from repro.reporting import write_bench_json  # noqa: E402
from repro.robustness import robust_guarantee_sweep  # noqa: E402

from bench_scalability import pipeline  # noqa: E402

#: Baselines carried forward across reports so every BENCH_<n>.json is
#: self-contained: the 10-toss scalability pipeline at the PR 1 tip
#: (commit 0bc943a, before the bitmask measure engine), the same
#: pipeline as measured in BENCH_2.json once the bitmask engine landed,
#: and as measured in BENCH_4.json (tracing instrumentation in place) --
#: the no-regression reference for the word-array PR.
BASELINES = {
    "scalability_pipeline_tosses10_pre_pr_seconds": 0.574,
    "scalability_pipeline_tosses10_bench2_seconds": 0.1822,
    "scalability_pipeline_tosses10_bench4_seconds": 0.1588,
}

PRE_PR_PIPELINE_SECONDS = BASELINES["scalability_pipeline_tosses10_pre_pr_seconds"]


#: ``--metrics`` destination, installed by :func:`main`; ``_timed``
#: appends one labelled ``repro-metrics/1`` snapshot per workload.
_SNAPSHOTS: MetricsSnapshotWriter = None


def _timed(function, repeats: int, trace=None, label: str = ""):
    """Best-of-``repeats`` wall time, the (stable) return value, and the
    observability counters of the final repeat.

    Each repeat runs under a fresh :class:`MetricsRecorder` (fanned out
    to ``trace`` when given) with the process-wide kernel totals zeroed,
    so the reported counters describe exactly one execution of the
    workload.  The workloads are deterministic, so every repeat produces
    the same counters; timing keeps best-of to shed scheduler noise.
    With ``--metrics`` in effect, the final repeat's aggregates are also
    written as one ``repro-metrics/1`` snapshot labelled ``label``.
    """
    best = None
    value = None
    counters = {}
    metrics = None
    for _ in range(repeats):
        reset_kernel_totals()
        metrics = MetricsRecorder()
        recorder = metrics if trace is None else MultiRecorder([metrics, trace])
        with use_recorder(recorder):
            start = time.perf_counter()
            value = function()
            elapsed = time.perf_counter() - start
        counters = dict(metrics.snapshot()["counters"])
        counters.update(kernel_totals())
        if best is None or elapsed < best:
            best = elapsed
    if _SNAPSHOTS is not None and metrics is not None:
        _SNAPSHOTS.write(take_snapshot(metrics, label=label))
    return best, value, counters


def bench_pipeline(records, tosses: int, backend: str, repeats: int, trace) -> None:
    """The full scalability pipeline under one measure backend."""
    with use_backend(backend) as active:
        seconds, (points, interval, clocked), counters = _timed(
            lambda: pipeline(tosses), repeats, trace,
            label=f"scalability_pipeline[{backend}]",
        )
    records.append(
        {
            "name": "scalability_pipeline",
            "backend": active,
            "points": points,
            "params": {"tosses": tosses},
            "system": {"runs": 2**tosses, "points": points},
            "seconds": round(seconds, 4),
            "counters": counters,
            "results": {"interval": interval, "clocked": sorted(clocked)},
        }
    )


def bench_sweep(records, messengers, repeats: int, trace) -> None:
    """Serial vs pool (engine) guarantee sweep on identical task lists."""
    losses = [Fraction(1, 2)]
    serial_seconds, serial_rows, serial_counters = _timed(
        lambda: guarantee_sweep(messengers, losses), repeats, trace,
        label="guarantee_sweep_serial",
    )
    parallel_seconds, parallel_rows, parallel_counters = _timed(
        lambda: robust_guarantee_sweep(messengers, losses), repeats, trace,
        label="guarantee_sweep_parallel",
    )
    if serial_rows != parallel_rows:
        raise AssertionError("parallel sweep rows differ from serial rows")
    system_size = {"tasks": len(serial_rows)}
    records.append(
        {
            "name": "guarantee_sweep_serial",
            "backend": get_default_backend(),
            # one row per (messengers, loss) system -- no single size
            "points": None,
            "params": {"messengers": list(messengers), "losses": losses},
            "system": system_size,
            "seconds": round(serial_seconds, 4),
            "counters": serial_counters,
            "results": {"rows": serial_rows},
        }
    )
    records.append(
        {
            "name": "guarantee_sweep_parallel",
            "backend": get_default_backend(),
            "points": None,
            "params": {"messengers": list(messengers), "losses": losses},
            "system": system_size,
            "seconds": round(parallel_seconds, 4),
            # Workers ship their counter deltas home and the engine
            # merges them -- see docs/observability.md.
            "counters": parallel_counters,
            "results": {"rows_match_serial": True},
        }
    )


def bench_common_knowledge(records, messengers: int, repeats: int, trace) -> None:
    """Mask-based model checking: C^eps phi_CA on a CA2 system."""
    from repro.attack import build_ca2
    from repro.core import standard_assignments
    from repro.logic import CommonKnowsProb, Model, Prop

    def workload():
        attack = build_ca2(messengers, Fraction(1, 2))
        post = standard_assignments(attack.psys)["post"]
        model = Model(post, {"coord": attack.coordinated})
        formula = CommonKnowsProb(
            tuple(attack.group), Fraction(1, 2), Prop("coord")
        )
        return len(attack.psys.system.points), len(model.extension(formula))

    seconds, (points, extension_size), counters = _timed(
        workload, repeats, trace, label="common_knowledge_ca2"
    )
    records.append(
        {
            "name": "common_knowledge_ca2",
            "backend": get_default_backend(),
            "points": points,
            "params": {"messengers": messengers},
            "system": {"points": points},
            "seconds": round(seconds, 4),
            "counters": counters,
            "results": {"extension_size": extension_size},
        }
    )


def bench_robust_sweep(records, messengers, repeats: int, trace) -> None:
    """The fault-tolerant engine under seeded chaos, rows pinned to serial.

    Exercises the retry path so the report carries real
    ``engine.retries``/``engine.raised`` counters, and asserts that the
    chaos run still returns exactly the serial sweep's rows.
    """
    from repro.attack.sweep import sweep_row_of, sweep_tasks
    from repro.robustness.engine import RetryPolicy, run_tasks
    from repro.robustness.faults import FaultInjectingTask, FaultPlan

    losses = [Fraction(1, 2)]
    tasks = sweep_tasks(messengers, losses)
    plan = FaultPlan.from_seed(
        seed=11, task_count=len(tasks), kinds=("raise",), rate=0.5
    )

    def workload():
        return run_tasks(
            FaultInjectingTask(sweep_row_of, plan),
            tasks,
            max_workers=1,
            policy=RetryPolicy(max_attempts=4, base_delay=0.0),
            sleep=lambda _seconds: None,
        )

    seconds, rows, counters = _timed(
        workload, repeats, trace, label="robust_sweep_chaos"
    )
    if rows != [sweep_row_of(task) for task in tasks]:
        raise AssertionError("chaos sweep rows differ from serial rows")
    records.append(
        {
            "name": "robust_sweep_chaos",
            "backend": get_default_backend(),
            "points": None,
            "params": {
                "messengers": list(messengers),
                "losses": losses,
                "fault_seed": 11,
                "faults": len(plan),
            },
            "system": {"tasks": len(tasks)},
            "seconds": round(seconds, 4),
            "counters": counters,
            "results": {"rows_match_serial": True},
        }
    )


def bench_audit_overhead(records, messengers, repeats: int) -> None:
    """The audit bill: checkpointed sweep with and without the Merkle bundle.

    ``audit=True`` rebuilds every row's attack system in the parent and
    re-derives its threshold derivation before chaining the leaf, so the
    overhead is real work, not hashing -- this record is why auditing
    defaults off.  Rows are asserted identical first (the audit path
    must never change results), and the derived ``audit_overhead_ratio``
    pins the cost PR-over-PR.
    """
    import shutil
    import tempfile

    losses = [Fraction(1, 2)]

    def best_of(audit: bool):
        best = None
        rows = None
        for _ in range(repeats):
            scratch = tempfile.mkdtemp(prefix="bench-audit-")
            try:
                start = time.perf_counter()
                rows = robust_guarantee_sweep(
                    messengers,
                    losses,
                    max_workers=1,
                    checkpoint_path=os.path.join(scratch, "sweep.jsonl"),
                    audit=audit,
                )
                elapsed = time.perf_counter() - start
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            if best is None or elapsed < best:
                best = elapsed
        return best, rows

    plain_seconds, plain_rows = best_of(False)
    audited_seconds, audited_rows = best_of(True)
    if plain_rows != audited_rows:
        raise AssertionError("audited sweep rows differ from unaudited rows")
    for audit, seconds in ((False, plain_seconds), (True, audited_seconds)):
        records.append(
            {
                "name": "audit_overhead_sweep",
                "backend": get_default_backend(),
                "points": None,
                "params": {
                    "messengers": list(messengers),
                    "losses": losses,
                    "audit": audit,
                },
                "system": {"tasks": len(plain_rows)},
                "seconds": round(seconds, 4),
                "counters": {},
                "results": {"rows_match_unaudited": True},
            }
        )


def bench_obs_overhead(records, tosses: int, repeats: int) -> None:
    """The telemetry bill: pipeline under NullRecorder vs MetricsRecorder.

    The instrumented run aggregates in memory only (no trace fan-out --
    streaming JSONL is priced separately by ``--trace`` runs), so the
    derived ``obs_overhead_ratio`` isolates what the recorder protocol
    itself costs a pure computation.  Target: within 3% of the
    uninstrumented baseline.  Results are asserted identical first.
    """

    def best_of(instrumented: bool):
        best = None
        value = None
        for _ in range(repeats):
            reset_kernel_totals()
            recorder = MetricsRecorder() if instrumented else None
            start = time.perf_counter()
            if recorder is None:
                value = pipeline(tosses)
            else:
                with use_recorder(recorder):
                    value = pipeline(tosses)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        return best, value

    null_seconds, null_value = best_of(False)
    metrics_seconds, metrics_value = best_of(True)
    if null_value != metrics_value:
        raise AssertionError("instrumented pipeline results differ from baseline")
    points = null_value[0]
    for recorder_name, seconds in (
        ("null", null_seconds),
        ("metrics", metrics_seconds),
    ):
        records.append(
            {
                "name": "obs_overhead_pipeline",
                "backend": get_default_backend(),
                "points": points,
                "params": {"tosses": tosses, "recorder": recorder_name},
                "system": {"runs": 2**tosses, "points": points},
                "seconds": round(seconds, 4),
                "counters": {},
                "results": {"matches_uninstrumented": True},
            }
        )


def _overhead_seconds(records, recorder_name: str):
    return next(
        (
            record["seconds"]
            for record in records
            if record["name"] == "obs_overhead_pipeline"
            and record["params"].get("recorder") == recorder_name
        ),
        None,
    )


def _record_seconds(records, name: str, backend: str):
    return next(
        (
            record["seconds"]
            for record in records
            if record["name"] == name and record["backend"] == backend
        ),
        None,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default="BENCH_10.json", help="where to write the report"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced parameters for CI (small systems, one repeat)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="also stream the whole run as repro-trace/1 JSONL to PATH",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help=(
            "also write one repro-metrics/1 snapshot per workload to PATH "
            "(labelled by benchmark name)"
        ),
    )
    args = parser.parse_args(argv)

    tosses = 6 if args.smoke else 10
    sweep_messengers = [1, 2] if args.smoke else [1, 2, 4, 7]
    ck_messengers = 2 if args.smoke else 4
    repeats = 1 if args.smoke else 5
    audit_messengers = [1, 2] if args.smoke else [1, 2, 3]

    trace = None
    if args.trace:
        from repro.obs import TraceRecorder

        trace = TraceRecorder(args.trace)
    global _SNAPSHOTS
    if args.metrics:
        _SNAPSHOTS = MetricsSnapshotWriter(args.metrics)

    records: list = []
    errors: list = []
    runners = [
        lambda: bench_pipeline(records, tosses, "bitmask", repeats, trace),
        lambda: bench_pipeline(records, tosses, "naive", repeats, trace),
        lambda: bench_sweep(records, sweep_messengers, repeats, trace),
        lambda: bench_common_knowledge(records, ck_messengers, repeats, trace),
        lambda: bench_robust_sweep(records, sweep_messengers, repeats, trace),
        lambda: bench_obs_overhead(records, tosses, repeats),
        lambda: bench_audit_overhead(records, audit_messengers, repeats),
    ]
    for runner in runners:
        try:
            runner()
        except Exception:  # noqa: BLE001 - report every failure, then exit 1
            errors.append(traceback.format_exc())
    if trace is not None:
        trace.close()
    if _SNAPSHOTS is not None:
        _SNAPSHOTS.close()
        _SNAPSHOTS = None

    payload = {
        "schema": "repro-bench/2",
        "pr": 10,
        "generated_by": "benchmarks/collect.py"
        + (" --smoke" if args.smoke else ""),
        "smoke": args.smoke,
        "environment": {
            "python": platform.python_version(),
            # one core means the parallel sweep can only tie the serial
            # one; the record is still useful as an overhead measurement
            "cpu_count": os.cpu_count(),
        },
        "default_backend": get_default_backend(),
        "baselines": dict(BASELINES),
        "benchmarks": records,
        "errors": errors,
    }
    derived = {}
    bitmask_pipeline = _record_seconds(records, "scalability_pipeline", "bitmask")
    if not args.smoke and bitmask_pipeline:
        derived["pipeline_speedup_vs_pre_pr"] = round(
            PRE_PR_PIPELINE_SECONDS / bitmask_pipeline, 2
        )
    null_seconds = _overhead_seconds(records, "null")
    metrics_seconds = _overhead_seconds(records, "metrics")
    if null_seconds and metrics_seconds:
        derived["obs_overhead_ratio"] = round(metrics_seconds / null_seconds, 4)
    audit_seconds = {
        record["params"]["audit"]: record["seconds"]
        for record in records
        if record["name"] == "audit_overhead_sweep"
    }
    if audit_seconds.get(False) and audit_seconds.get(True):
        derived["audit_overhead_ratio"] = round(
            audit_seconds[True] / audit_seconds[False], 4
        )
    if derived:
        payload["derived"] = derived
    text = write_bench_json(args.output, payload)
    print(text)
    if errors:
        print(f"\n{len(errors)} benchmark(s) FAILED", file=sys.stderr)
        for error in errors:
            print(error, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
