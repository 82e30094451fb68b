"""In-memory metrics: counters and hierarchical timing spans.

:class:`MetricsRecorder` aggregates everything in plain dictionaries so
a caller can run a workload and read its counters and spans -- this is
how ``perfbench`` puts per-layer spans and work counters (kernel
queries, gfp iterations, retries) next to each job's timing.
:meth:`~MetricsRecorder.snapshot` copies them out as plain dicts, the
form a pool worker ships home (:mod:`repro.obs.snapshot`).

* **Counters** are monotonically increasing integers keyed by name.
  Events also bump a ``event:<kind>`` counter, so the chaos suite can
  equate the engine's ``task_attempt`` events with its attempt log.
* **Spans** aggregate per hierarchical path: nested spans join their
  names with ``/`` (``guarantee_sweep/sweep_row``), and each path keeps
  count, total, min and max duration in seconds.

Durations come from :mod:`repro.obs.clock`; they are the only
nondeterministic values here and they never leave the observability
layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .clock import perf_counter
from .recorder import Recorder

__all__ = ["MetricsRecorder", "SpanStats"]


@dataclass
class SpanStats:
    """Aggregate timing of every completed span at one hierarchical path."""

    count: int = 0
    total_seconds: float = 0.0
    min_seconds: float = 0.0
    max_seconds: float = 0.0

    def add(self, seconds: float) -> None:
        if self.count == 0 or seconds < self.min_seconds:
            self.min_seconds = seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds
        self.count += 1
        self.total_seconds += seconds


class _MetricsSpan:
    """One live span: pushes its name on enter, aggregates on exit."""

    __slots__ = ("_recorder", "_name", "_path", "_started")

    def __init__(self, recorder: "MetricsRecorder", name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._path: Optional[str] = None
        self._started = 0.0

    def __enter__(self) -> "_MetricsSpan":
        stack = self._recorder._stack
        stack.append(self._name)
        self._path = "/".join(stack)
        self._started = perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        elapsed = perf_counter() - self._started
        stack = self._recorder._stack
        if stack and stack[-1] == self._name:
            stack.pop()
        stats = self._recorder.spans.setdefault(self._path, SpanStats())
        stats.add(elapsed)
        return False


class MetricsRecorder(Recorder):
    """Aggregating recorder: counters + hierarchical span stats."""

    __slots__ = ("counters", "spans", "_stack")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.spans: Dict[str, SpanStats] = {}
        self._stack: List[str] = []

    def counter(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def event(self, kind: str, /, **fields) -> None:
        key = f"event:{kind}"
        self.counters[key] = self.counters.get(key, 0) + 1

    def span(self, name: str, /, **fields) -> _MetricsSpan:
        return _MetricsSpan(self, name)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready copy of every aggregate (sorted for stable diffs)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "spans": {
                path: {
                    "count": stats.count,
                    "total_seconds": stats.total_seconds,
                    "min_seconds": stats.min_seconds,
                    "max_seconds": stats.max_seconds,
                }
                for path, stats in sorted(self.spans.items())
            },
        }
