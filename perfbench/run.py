"""The benchmark of record: closed-loop jobs, end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload coin_pipeline --seed 1 --seconds 20 --trace 0

One caller in one process issues one job at a time and issues the next
only after the previous one finished.  Before the timed loop the run
computes the reference outputs the checks use and runs one warm-up job
whose time is discarded.

``--trace 0`` prints the end-to-end metrics.  Between its jobs it runs
blocks of a fixed reference kernel that is independent of the library,
and reports job times in units of that kernel's time (``ref``), which
cancels most of the slowdown co-tenants on a shared host cause.  It
also times set-up (fresh interpreters that import the library and build
the workload's inputs) between jobs.  ``--trace 1`` alternates
untraced and traced jobs of the same code, writes the traced ones as a
``repro-trace/1`` file under ``.perfbench/`` through
:class:`repro.obs.TraceRecorder`, folds that file with
``tools/tracereport`` as a check, and prints the per-layer metrics.  The
last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it stamps the environment.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT_DIR = os.path.join(ROOT, ".perfbench")

#: Fresh-interpreter set-ups measured per run; ``setup_s`` is their median.
SETUP_PROBES = 9
#: Fewest timed jobs of each kind, however short ``--seconds`` is.
MIN_JOBS = 3
#: Points of one reference unit (about 0.05 s on a 2-vCPU host).
REFERENCE_SIZE = 50_000
#: The line a reference block appends and fsyncs (``Workload.reference_syncs``).
REFERENCE_LINE = b'{"row": 0, "value": "0123456789abcdef"}\n'

#: End-to-end metrics (``--trace 0``) and their units.  ``ref`` is the
#: wall time of one :func:`reference_unit` run in the same loop.
END_TO_END = {
    "setup_s": "s",
    "job_ref_p50": "ref",
    "work_per_ref": "work/ref",
    "cpu_ref_per_job": "ref",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

#: Per-layer metrics (``--trace 1``) and their units.  A workload that
#: never reaches a layer reports 0 for it.
PER_LAYER = {
    "systems.run_protocol_s": "s",
    "systems.runs": "count",
    "trees.probabilistic_system_s": "s",
    "core.point_index_s": "s",
    "core.points": "count",
    "core.assignment_index_s": "s",
    "core.assignment_space_s": "s",
    "core.spaces_induced": "count",
    "core.fact_restrict_s": "s",
    "core.opponent_assignment_s": "s",
    "probability.query_s": "s",
    "probability.kernel_queries": "count",
    "probability.mask_conversions": "count",
    "probability.cache_hit_ratio": "fraction",
    "probability.cache_lookups": "count",
    "logic.extension_s": "s",
    "logic.gfp_iterations": "count",
    "logic.extension_masks": "count",
    "attack.build_s": "s",
    "attack.threshold_s": "s",
    "attack.rows": "count",
    "robustness.parent_cpu_s": "s",
    "robustness.worker_cpu_s": "s",
    "robustness.worker_busy_frac": "fraction",
    "robustness.worker_wall_s": "s",
    "robustness.attempts": "count",
    "robustness.retries": "count",
    "robustness.checkpoint_records": "count",
    "robustness.checkpoint_bytes": "bytes",
    "obs.audited_sweep_s": "s",
    "obs.audit_leaves": "count",
    "obs.audit_nodes": "count",
    "obs.audit_bundle_bytes": "bytes",
    "verifyaudit.verify_s": "s",
    "verifyaudit.replay_s": "s",
    "bench.trace_overhead_ratio": "ratio",
    "bench.untraced_job_s_p50": "s",
    "bench.traced_job_s_p50": "s",
    "bench.trace_pairs": "count",
    "bench.counter_mismatches": "count",
}

#: Library counters whose per-job totals become per-layer metrics.
COUNTER_METRICS = {
    "model.gfp_iterations": "logic.gfp_iterations",
    "model.extension_masks_computed": "logic.extension_masks",
    "engine.attempts": "robustness.attempts",
    "engine.retries": "robustness.retries",
}


def _require_library() -> None:
    """Exit 2, printing no result, unless the library sources are here."""
    missing = [
        path
        for path in ("src/repro/__init__.py", "tools/verifyaudit/verify.py")
        if not os.path.isfile(os.path.join(ROOT, path))
    ]
    if missing:
        print(
            f"perfbench: {', '.join(missing)} not found under {ROOT}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


@dataclass
class JobRecord:
    """One attempted job as the runner saw it."""

    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    units: int = 0
    #: Peak RSS while the job ran (see :func:`_reset_peak_rss`).
    peak_rss_mb: float = 0.0
    #: Wall time per reference unit in the block run after the job: its
    #: computation, and its fsynced appends.
    reference_s: float = 0.0
    reference_sync_s: float = 0.0
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)


def reference_unit() -> int:
    """The yardstick: point tables, frozensets, masks, fractions, JSON, sha256.

    It mirrors the kinds of work the library does, on a system of
    ``REFERENCE_SIZE`` points and a log of ``REFERENCE_SIZE // 25`` rows,
    but imports nothing from it: no change to the library moves it,
    while load from co-tenants on the host slows it as it slows the
    jobs.  Job times are reported in units of its wall time.
    """
    points = [(i % 13, i // 13) for i in range(REFERENCE_SIZE)]
    where = {point: i for i, point in enumerate(points)}
    classes: Dict[int, List[Tuple[int, int]]] = {}
    for point in points:
        classes.setdefault(point[1] % 2039, []).append(point)
    spaces = [frozenset(members) for members in classes.values()]
    mask = 0
    for members in spaces[::16]:
        for point in members:
            mask |= 1 << where[point]
    total = Fraction(0)
    for members in spaces[::64]:
        total += Fraction(len(members), len(where))
    digest = hashlib.sha256()
    for i in range(REFERENCE_SIZE // 25):
        row = {"row": i, "loss": f"{i % 61}/97", "value": str(Fraction(i, 2 ** (i % 40) + 3))}
        line = json.dumps(row, sort_keys=True)
        digest.update(line.encode())
        json.loads(line)
    return len(spaces) + bin(mask).count("1") + total.denominator + digest.digest()[0]


def reference_block(units: int, syncs: int) -> Tuple[float, float]:
    """Wall time per unit of ``units`` reference units run back to back.

    Each unit is followed by ``syncs`` appends of ``REFERENCE_LINE``,
    each flushed and fsynced, so host disk latency slows the yardstick
    of a workload that makes durable writes as it slows the job.
    Returns ``(computation, appends)`` seconds per unit.
    """
    gc.collect()
    compute = sync = 0.0
    path = os.path.join(OUTPUT_DIR, f"reference-{os.getpid()}.log")
    handle = open(path, "wb") if syncs else None
    try:
        for _ in range(units):
            started = time.perf_counter()
            reference_unit()
            computed = time.perf_counter()
            for _ in range(syncs):
                handle.write(REFERENCE_LINE)
                handle.flush()
                os.fsync(handle.fileno())
            compute += computed - started
            sync += time.perf_counter() - computed
    finally:
        if handle is not None:
            handle.close()
            os.remove(path)
    return compute / units, sync / units


def run_job(workload, index: int, traced: bool, trace=None) -> JobRecord:
    """Issue one job; time it; check it; never let it abort the run.

    A job that raises or fails its check is recorded with its problems
    and counted as failed.  ``trace`` (traced jobs only) is the run's
    :class:`~repro.obs.TraceRecorder`; the job then also reports to a
    fresh :class:`~repro.obs.MetricsRecorder` whose spans and counters
    become the job's per-layer values.
    """
    from repro.obs import MetricsRecorder, MultiRecorder, use_recorder
    from repro.probability.bitset import kernel_totals
    from workloads import cpu_seconds, reap_children

    record = JobRecord(traced=traced)
    gc.collect()
    _reset_peak_rss()
    metrics = MetricsRecorder() if traced else None
    kernel_before = kernel_totals()
    own, children = cpu_seconds()
    started = time.perf_counter()
    try:
        if traced:
            with use_recorder(MultiRecorder([trace, metrics])) as recorder:
                with recorder.span("bench.job", job=index):
                    result = workload.job(index)
        else:
            result = workload.job(index)
    except Exception:
        record.problems.append(traceback.format_exc(limit=4).strip())
        result = None
    record.wall_s = time.perf_counter() - started
    reap_children()
    own_after, children_after = cpu_seconds()
    record.cpu_s = (own_after - own) + (children_after - children)
    record.peak_rss_mb = _peak_rss_mb()
    if result is not None:
        record.units = result.units
        record.problems.extend(result.problems)
    if traced and result is not None:
        record.layers = _job_layers(workload, metrics)
        kernel_after = kernel_totals()
        record.counters = _deterministic_counters(metrics, kernel_before, kernel_after)
        record.counters.update(
            {name: value for name, value in record.layers.items() if not name.endswith("_s")}
        )
        trace.event("bench_job", job=index, wall_s=record.wall_s, counters=record.counters)
    return record


def span_seconds(metrics) -> Dict[str, float]:
    """Total seconds per span name (its last path component) plus ``_s``."""
    seconds: Dict[str, float] = {}
    for path, stats in metrics.spans.items():
        name = path.rsplit("/", 1)[-1] + "_s"
        seconds[name] = seconds.get(name, 0.0) + stats.total_seconds
    return seconds


def _job_layers(workload, metrics) -> Dict[str, float]:
    """Per-layer values of one traced job."""
    layers = span_seconds(metrics)
    for counter, metric in COUNTER_METRICS.items():
        layers[metric] = metrics.counters.get(counter, 0)
    layers.update(workload.job_layers())
    return layers


def _deterministic_counters(metrics, before, after) -> Dict[str, int]:
    """Work counts that must repeat exactly from job to job.

    Worker-attributed counters (``worker.<pid>.*``) are left out: the
    pid differs every job, their sum is already in the plain counters.
    """
    counters = {
        f"kernel.{key}": after[key] - before[key] for key in sorted(after)
    }
    counters.update(
        (name, value)
        for name, value in sorted(metrics.counters.items())
        if not name.startswith("worker.")
    )
    return counters


def closed_loop(
    workload,
    seconds: float,
    traced: bool = False,
    trace=None,
    reference: bool = False,
    setup: Optional["SetupTimer"] = None,
) -> List[JobRecord]:
    """Jobs one after another for ``seconds``; alternate kinds when traced.

    The first job is the warm-up: it is checked and counted, but its
    time is not a sample.  A traced run alternates untraced and traced
    jobs, so both kinds see the same machine state.  With ``reference``
    every job, the warm-up too, is followed by a block of reference
    units lasting about as long as the warm-up, so jobs and yardstick
    take turns and sample the same stretches of host load.  With
    ``setup`` the loop also times ``SETUP_PROBES`` set-ups, spread evenly
    over it between jobs, so they too sample the whole run's host load
    rather than a few seconds of it.
    """
    records = [run_job(workload, 0, traced=False)]
    units = 0
    if reference:
        syncs = workload.reference_syncs
        units = max(1, round(records[0].wall_s / sum(reference_block(1, syncs))))
        records[0].reference_s, records[0].reference_sync_s = reference_block(units, syncs)
    started = time.perf_counter()
    deadline = started + seconds
    index = 1
    while True:
        if setup is not None and len(setup.samples) < SETUP_PROBES:
            if (time.perf_counter() - started) * SETUP_PROBES >= len(setup.samples) * seconds:
                setup.take()
        kinds = [record.traced for record in records[1:]]
        enough = kinds.count(False) >= MIN_JOBS and (
            not traced or kinds.count(True) >= MIN_JOBS
        )
        if enough and time.perf_counter() >= deadline:
            break
        is_traced = traced and index % 2 == 0
        records.append(run_job(workload, index, traced=is_traced, trace=trace))
        if units:
            records[-1].reference_s, records[-1].reference_sync_s = reference_block(units, syncs)
        index += 1
    while setup is not None and len(setup.samples) < SETUP_PROBES:
        setup.take()
    return records


class SetupTimer:
    """Times fresh interpreters that set up one workload, one at a time."""

    def __init__(self, workload_name: str, seed: int) -> None:
        self.command = [
            sys.executable,
            os.path.abspath(__file__),
            "--probe-setup",
            "--workload",
            workload_name,
            "--seed",
            str(seed),
        ]
        self.samples: List[float] = []

    def take(self) -> None:
        started = time.perf_counter()
        subprocess.run(self.command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        self.samples.append(time.perf_counter() - started)


def environment() -> Dict[str, object]:
    """The stamp every result carries."""
    import importlib.util

    from repro.probability.bitset import get_default_backend

    return {
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "default_backend": get_default_backend(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = completed.stdout.split()
    if completed.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest() -> str:
    """sha256 over the library and tool sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for directory, subdirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            subdirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def _reset_peak_rss() -> None:
    """Restart this process's RSS high-water mark (Linux, best effort).

    Each job's peak then excludes the reference blocks run between jobs.
    Where the kernel refuses, the peak is the whole run's.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """Peak RSS of this process, or of any reaped child if larger."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(records: List[JobRecord], setup_s: float) -> Dict[str, float]:
    """The end-to-end metrics of an untraced run with reference blocks.

    Each timed job's wall time is divided by the reference-unit time of
    the blocks just before and just after it, and its CPU time by their
    computation alone; the medians of those ratios are reported.  On the shared 2-vCPU host the benchmark
    was built on, co-tenants slow every instruction by up to 1.7x in
    bursts lasting seconds, so raw job times moved by 15-30% from run to
    run.  A job and the blocks around it last about a second together
    and mostly see the same load, so their ratio moved by 3-9%.  Failed
    jobs are no timing samples.  Peak RSS is the warm-up job's: it runs
    before any reference block, which would otherwise leave its own
    memory resident.
    """
    attempted = len(records)
    failed = sum(1 for record in records if record.problems)
    jobs = records[1:]
    around = [
        (
            (before.reference_s + job.reference_s) / 2,
            (before.reference_sync_s + job.reference_sync_s) / 2,
        )
        for before, job in zip(records, jobs)
    ]
    timed = [(job, ref) for job, ref in zip(jobs, around) if not job.problems]
    timed = timed or list(zip(jobs, around))
    return {
        "setup_s": setup_s,
        "job_ref_p50": statistics.median(job.wall_s / sum(ref) for job, ref in timed),
        "work_per_ref": statistics.median(job.units * sum(ref) / job.wall_s for job, ref in timed),
        "cpu_ref_per_job": statistics.median(job.cpu_s / ref[0] for job, ref in timed),
        "peak_rss_mb": records[0].peak_rss_mb,
        "ok_frac": (attempted - failed) / attempted,
    }


def raw_seconds(records: List[JobRecord]) -> Dict[str, float]:
    """Medians of the raw times behind the reference-unit metrics."""
    seconds = {"job_s_p50": statistics.median(record.wall_s for record in records[1:])}
    if records[0].reference_s:
        seconds["reference_unit_s_p50"] = statistics.median(
            record.reference_s for record in records
        )
        seconds["reference_syncs_s_p50"] = statistics.median(
            record.reference_sync_s for record in records
        )
    return seconds


def per_layer(records: List[JobRecord], extras: Dict[str, float]) -> Dict[str, float]:
    """Median over traced jobs of each layer value, plus the extras."""
    traced = [record for record in records[1:] if record.traced]
    untraced = [record for record in records[1:] if not record.traced]
    values: Dict[str, float] = {name: 0 for name in PER_LAYER}
    for name in set().union(*(record.layers for record in traced)):
        values[name] = statistics.median(record.layers.get(name, 0) for record in traced)
    values.update(extras)
    if "verifyaudit.verify_audit_s" in values:
        # verify_audit runs every tier; the breakdown timed all but replay.
        values["verifyaudit.replay_s"] = (
            values["verifyaudit.verify_audit_s"] - values["verifyaudit.verify_s"]
        )
    lookups = statistics.median(
        record.counters.get("kernel.cache_hits", 0) + record.counters.get("kernel.cache_misses", 0)
        for record in traced
    )
    hits = statistics.median(record.counters.get("kernel.cache_hits", 0) for record in traced)
    values["probability.cache_lookups"] = lookups
    values["probability.cache_hit_ratio"] = hits / lookups if lookups else 0
    values["probability.kernel_queries"] = statistics.median(
        sum(
            record.counters.get(f"kernel.{key}", 0)
            for key in ("cache_hits", "cache_misses", "naive_queries", "wordarray_queries")
        )
        for record in traced
    )
    values["probability.mask_conversions"] = statistics.median(
        record.counters.get("kernel.mask_conversions", 0) for record in traced
    )
    if values["robustness.worker_wall_s"]:
        values["robustness.worker_busy_frac"] = (
            values["robustness.worker_cpu_s"] / values["robustness.worker_wall_s"]
        )
    values["bench.untraced_job_s_p50"] = statistics.median(record.wall_s for record in untraced)
    values["bench.traced_job_s_p50"] = statistics.median(record.wall_s for record in traced)
    # Each traced job against the untraced job just before it: the two
    # share the machine's state, so bursts of co-tenant load cancel.
    jobs = records[1:]
    ratios = [
        later.wall_s / earlier.wall_s
        for earlier, later in zip(jobs, jobs[1:])
        if later.traced and not earlier.traced
    ]
    values["bench.trace_overhead_ratio"] = statistics.median(ratios)
    values["bench.trace_pairs"] = len(ratios)
    values["bench.counter_mismatches"] = sum(
        1 for record in traced if record.counters != traced[0].counters
    )
    return values


def traced_run(
    workload, args, trace_path: str, stamp: Dict[str, object]
) -> Tuple[List[JobRecord], Dict[str, float], List[str]]:
    """The per-layer run: interleaved jobs, one breakdown, a folded trace."""
    from repro.obs import MetricsRecorder, MultiRecorder, TraceRecorder, read_trace, use_recorder
    from tools.tracereport.report import summarize

    problems: List[str] = []
    breakdown = MetricsRecorder()
    with TraceRecorder(trace_path) as trace:
        trace.event("bench_environment", workload=args.workload, seed=args.seed, **stamp)
        records = closed_loop(workload, args.seconds, traced=True, trace=trace)
        with use_recorder(MultiRecorder([trace, breakdown])) as recorder:
            with recorder.span("bench.breakdown"):
                extras = workload.breakdown()
    extras.update(span_seconds(breakdown))
    del extras["bench.breakdown_s"]
    try:
        summarize(read_trace(trace_path))
    except Exception:
        problems.append("tracereport could not fold the trace:\n" + traceback.format_exc(limit=4))
    return records, extras, problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-setup",
        action="store_true",
        help="only import the library and build the workload's inputs (set-up timing)",
    )
    args = parser.parse_args(argv)
    _require_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = os.path.join(OUTPUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.probe_setup:
            return 0
        workload.prepare()
        stamp = environment()
        problems: List[str] = []
        if args.trace:
            trace_path = os.path.join(
                OUTPUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"
            )
            records, extras, problems = traced_run(workload, args, trace_path, stamp)
            metrics = per_layer(records, extras)
            units = PER_LAYER
        else:
            trace_path = None
            setup = SetupTimer(args.workload, args.seed)
            records = closed_loop(workload, args.seconds, reference=True, setup=setup)
            metrics = end_to_end(records, statistics.median(setup.samples))
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [record.problems for record in records if record.problems]
    for failure in failures[:3]:
        print("job failed: " + "; ".join(failure), file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(
        json.dumps(
            {
                "perfbench": {
                    "workload": args.workload,
                    "seed": args.seed,
                    "trace": trace_path and os.path.relpath(trace_path, ROOT),
                    "jobs": {
                        "untraced": sum(1 for r in records[1:] if not r.traced),
                        "traced": sum(1 for r in records[1:] if r.traced),
                    },
                    "environment": stamp,
                    "seconds": raw_seconds(records),
                }
            },
            sort_keys=True,
        )
    )
    result = {
        "correct": not failures and not problems,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
