"""Pure folding logic behind reprotop: trace records in, status dict out.

Everything here is side-effect free so it can be tested without a
terminal or a running sweep: :class:`SweepMonitor` folds ``repro-trace/1``
records one at a time, :func:`checkpoint_status` counts completed rows in
a sweep checkpoint, and :func:`render_status` turns a status dict into
the tables the CLI refreshes.

The status dict is the tool's contract (``--json`` emits it via
:func:`repro.reporting.json_ready`)::

    {"done": ..., "total": ..., "percent": ..., "retries": ...,
     "elapsed_seconds": ..., "rate_per_second": ..., "eta_seconds": ...,
     "maxrss_kb": ..., "outcomes": {...}, "retry_histogram": {...},
     "workers": {pid: {"attempts": ..., "kernel_queries": ...,
                       "queries_per_second": ...}},
     "cache": {"hits": ..., "misses": ..., "hit_rate": Fraction|None},
     "finished": bool, "records": ...}

Exact values stay exact: the cache hit rate is a
:class:`fractions.Fraction`; only derived *timing* figures (rate, ETA)
are floats.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Iterable, List, Optional

from repro.errors import TraceError
from repro.obs.jsonl import JsonlFormat
from repro.reporting import render_table

__all__ = ["SweepMonitor", "checkpoint_status", "render_status"]

#: Counter suffixes (under ``worker.<pid>.kernel.``) that count measure
#: kernel *queries*; evictions and switches are bookkeeping, not
#: throughput.
_KERNEL_QUERY_KEYS = frozenset({"cache_hits", "cache_misses", "naive_queries"})

_WORKER_COUNTER = re.compile(r"^worker\.(\d+)\.(.+)$")


def _fraction_or_none(hits: int, misses: int) -> Optional[Fraction]:
    total = hits + misses
    if total == 0:
        return None
    return Fraction(hits, total)


def _worker_entries(counters: Dict[str, int]) -> Dict[int, Dict[str, int]]:
    """Group ``worker.<pid>.*`` counters into per-pid kernel tallies."""
    workers: Dict[int, Dict[str, int]] = {}
    for name, value in counters.items():
        match = _WORKER_COUNTER.match(name)
        if match is None:
            continue
        pid = int(match.group(1))
        entry = workers.setdefault(pid, {"kernel_queries": 0, "cache_hits": 0, "cache_misses": 0})
        rest = match.group(2)
        if rest.startswith("kernel."):
            key = rest[len("kernel.") :]
            if key in _KERNEL_QUERY_KEYS:
                entry["kernel_queries"] += int(value)
            if key == "cache_hits":
                entry["cache_hits"] += int(value)
            elif key == "cache_misses":
                entry["cache_misses"] += int(value)
    return workers


class SweepMonitor:
    """Fold a ``repro-trace/1`` record stream into a live status.

    Feed records in file order (``feed``/``feed_all``); call
    :meth:`status` at any point for the current picture.  The monitor
    never seeks or sleeps -- the CLI owns the tailing loop -- so the same
    instance works for ``--once`` reads and incremental tails alike.
    """

    def __init__(self) -> None:
        self.records = 0
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, object] = {}
        #: Fields of the most recent ``sweep_progress`` event, if any.
        self.progress: Optional[Dict] = None
        #: Fields of the most recent ``cache_stats`` event (serial sweeps
        #: emit cumulative kernel totals there).
        self.cache_stats: Optional[Dict] = None
        #: index -> attempts seen, from ``task_attempt`` events.
        self.attempts_by_task: Dict[int, int] = {}
        #: outcome label -> count, from ``task_attempt`` events.
        self.outcomes: Dict[str, int] = {}
        #: pid -> shipped-delta count, from ``worker_obs_delta`` events.
        self.worker_attempts: Dict[int, int] = {}

    def feed(self, record: Dict) -> None:
        """Fold one trace record (headers and unknown types are no-ops)."""
        self.records += 1
        kind = record.get("type")
        if kind == "counter":
            name = record.get("name", "")
            self.counters[name] = self.counters.get(name, 0) + int(record.get("value", 0))
        elif kind == "gauge":
            self.gauges[record.get("name", "")] = record.get("value")
        elif kind == "event":
            fields = record.get("fields", {})
            event = record.get("kind")
            if event == "sweep_progress":
                self.progress = dict(fields)
            elif event == "cache_stats":
                self.cache_stats = dict(fields)
            elif event == "task_attempt":
                index = fields.get("index")
                if isinstance(index, int):
                    self.attempts_by_task[index] = self.attempts_by_task.get(index, 0) + 1
                outcome = str(fields.get("outcome", "unknown"))
                self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
            elif event == "worker_obs_delta":
                worker = fields.get("worker")
                if isinstance(worker, int):
                    self.worker_attempts[worker] = self.worker_attempts.get(worker, 0) + 1

    def feed_all(self, records: Iterable[Dict]) -> None:
        for record in records:
            self.feed(record)

    def _cache(self, workers: Dict[int, Dict[str, int]]) -> Dict:
        """Aggregate cache hits/misses: shipped worker counters first.

        Worker counters are per-attempt deltas and sum exactly; the
        serial engine instead leaves cumulative totals in the last
        ``cache_stats`` event, so that is the fallback.
        """
        hits = sum(entry["cache_hits"] for entry in workers.values())
        misses = sum(entry["cache_misses"] for entry in workers.values())
        if hits == 0 and misses == 0 and self.cache_stats is not None:
            hits = int(self.cache_stats.get("cache_hits", 0))
            misses = int(self.cache_stats.get("cache_misses", 0))
        return {"hits": hits, "misses": misses, "hit_rate": _fraction_or_none(hits, misses)}

    def status(self) -> Dict:
        """The current status dict (see module docstring for the shape)."""
        progress = self.progress or {}
        done = progress.get("done")
        total = progress.get("total")
        elapsed = progress.get("elapsed_seconds")
        retries = progress.get("retries")
        if done is None and self.outcomes:
            done = self.outcomes.get("ok", 0)
        if retries is None:
            retries = self.counters.get("engine.retries", 0)
        workers = _worker_entries(self.counters)
        status = _derive_status(
            done=done,
            total=total,
            retries=retries,
            elapsed=elapsed,
            workers=workers,
            worker_attempts=self.worker_attempts,
            cache=self._cache(workers),
            maxrss_kb=progress.get("maxrss_kb", self.gauges.get("engine.maxrss_kb")),
        )
        histogram: Dict[int, int] = {}
        for attempts in self.attempts_by_task.values():
            histogram[attempts] = histogram.get(attempts, 0) + 1
        status["retry_histogram"] = dict(sorted(histogram.items()))
        status["outcomes"] = dict(sorted(self.outcomes.items()))
        status["records"] = self.records
        return status


def _derive_status(
    done: Optional[int],
    total: Optional[int],
    retries: Optional[int],
    elapsed: Optional[float],
    workers: Dict[int, Dict[str, int]],
    worker_attempts: Dict[int, int],
    cache: Dict,
    maxrss_kb: Optional[int],
) -> Dict:
    """Fill in the derived fields (percent, rate, ETA, per-worker rates)."""
    percent = None
    if done is not None and total:
        percent = round(100.0 * done / total, 1)
    rate = None
    eta = None
    if done and elapsed and elapsed > 0:
        rate = round(done / elapsed, 3)
        if total is not None and total >= done:
            eta = round((total - done) * elapsed / done, 1)
    worker_rows: Dict[int, Dict] = {}
    for pid in sorted(set(workers) | set(worker_attempts)):
        entry = workers.get(pid, {"kernel_queries": 0})
        queries = entry["kernel_queries"]
        worker_rows[pid] = {
            "attempts": worker_attempts.get(pid, 0),
            "kernel_queries": queries,
            "queries_per_second": (
                round(queries / elapsed, 1) if elapsed and elapsed > 0 else None
            ),
        }
    return {
        "done": done,
        "total": total,
        "percent": percent,
        "retries": retries,
        "elapsed_seconds": elapsed,
        "rate_per_second": rate,
        "eta_seconds": eta,
        "maxrss_kb": maxrss_kb,
        "workers": worker_rows,
        "cache": cache,
        "finished": bool(total is not None and done is not None and done >= total and total > 0),
    }


def checkpoint_status(path: str) -> int:
    """Count completed rows in a sweep checkpoint JSONL.

    Applies the checkpoint loader's crash tolerance
    (:class:`repro.obs.jsonl.JsonlFormat`): a truncated or garbled *final*
    line (the one a kill interrupted) is ignored, while garbage earlier
    in the file is a real error -- monitoring must not silently
    under-report a corrupted sweep.
    """
    records = JsonlFormat(f"checkpoint {path}:", TraceError).read(path)
    return sum(1 for _line, record in records if "index" in record)


def _fmt(value: object) -> object:
    return "-" if value is None else value


def render_status(status: Dict) -> str:
    """Render a status dict as the refreshing plain-text dashboard."""
    blocks: List[str] = []
    percent = status.get("percent")
    blocks.append(
        render_table(
            "Sweep progress",
            ["done", "total", "%", "retries", "elapsed s", "rows/s", "eta s", "maxrss kb"],
            [
                [
                    _fmt(status.get("done")),
                    _fmt(status.get("total")),
                    _fmt(percent),
                    _fmt(status.get("retries")),
                    _fmt(status.get("elapsed_seconds")),
                    _fmt(status.get("rate_per_second")),
                    _fmt(status.get("eta_seconds")),
                    _fmt(status.get("maxrss_kb")),
                ]
            ],
        )
    )
    histogram = status.get("retry_histogram") or {}
    if histogram:
        blocks.append(
            render_table(
                "Retry histogram",
                ["attempts", "tasks"],
                [[attempts, count] for attempts, count in sorted(histogram.items())],
            )
        )
    workers = status.get("workers") or {}
    if workers:
        blocks.append(
            render_table(
                "Per-worker kernel throughput",
                ["worker", "attempts", "kernel queries", "queries/s"],
                [
                    [pid, entry.get("attempts", 0), entry.get("kernel_queries", 0), _fmt(entry.get("queries_per_second"))]
                    for pid, entry in sorted(workers.items())
                ],
            )
        )
    cache = status.get("cache") or {}
    blocks.append(
        render_table(
            "Measure-kernel cache",
            ["hits", "misses", "hit rate"],
            [[cache.get("hits", 0), cache.get("misses", 0), _fmt(cache.get("hit_rate"))]],
        )
    )
    if status.get("finished"):
        blocks.append("sweep complete")
    return "\n\n".join(blocks)
