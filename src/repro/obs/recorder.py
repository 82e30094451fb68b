"""The pluggable, observe-only recorder protocol.

Observability in this reproduction is **one-way glass**: instrumented
code hands counters, events and timing spans to whatever
:class:`Recorder` is installed, and the recorder may *never* hand
anything back.  No recorder method returns a value the instrumented
code consumes (spans are context managers whose ``__enter__`` result is
only the span itself), so swapping recorders cannot change a single
probability, sweep row, or fixpoint -- the differential suite in
``tests/obs`` pins exactly that.

Three recorders ship with the library:

* :class:`NullRecorder` -- the default; every method is a no-op, so the
  instrumented hot paths cost a method call at most.
* :class:`~repro.obs.metrics.MetricsRecorder` -- in-memory monotonic
  counters and hierarchical timing spans.
* :class:`~repro.obs.trace.TraceRecorder` -- streams structured JSONL
  events (schema ``repro-trace/1``) for ``tools/tracereport``.

:class:`MultiRecorder` fans out to several recorders at once
(``perfbench``'s traced jobs feed a trace *and* a metrics recorder).

The active recorder is process-global state, installed with
:func:`set_recorder` or scoped with the :func:`use_recorder` context
manager, and read by instrumented code through :func:`get_recorder`.
Worker processes spawned by the parallel runners start with the default
:class:`NullRecorder`; when the *parent* has a real recorder installed,
the runners capture each attempt's observations worker-side
(:class:`repro.obs.snapshot.ObsDeltaCapture`) and ship the delta back
inside the task envelope, so parent-side counters cover the whole sweep
-- see ``docs/observability.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

__all__ = [
    "MultiRecorder",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "get_recorder",
    "set_recorder",
    "use_recorder",
]


class _NullSpan:
    """The reusable no-op span: entering and exiting does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Recorder:
    """Base class of the recorder protocol; every method is a no-op.

    Subclasses override any subset of :meth:`counter`, :meth:`event`,
    :meth:`span` and :meth:`close`.  The contract every override must
    keep: **observe only**.  Recorders must not raise on well-formed
    input, must not mutate their arguments, and must not return values
    that instrumented code could branch on.
    """

    def counter(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the monotonic counter ``name``."""

    def event(self, kind: str, /, **fields) -> None:
        """Record one structured event of ``kind`` with arbitrary fields."""

    def span(self, name: str, /, **fields):
        """A context manager timing the enclosed block as span ``name``."""
        return _NULL_SPAN

    def close(self) -> None:
        """Flush and release any resources the recorder holds."""

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False


class NullRecorder(Recorder):
    """The default recorder: records nothing, costs (almost) nothing."""

    __slots__ = ()


class _MultiSpan:
    """Enter/exit a span on every child recorder, in order."""

    __slots__ = ("_spans",)

    def __init__(self, spans: Sequence[object]) -> None:
        self._spans = spans

    def __enter__(self) -> "_MultiSpan":
        for span in self._spans:
            span.__enter__()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        for span in reversed(self._spans):
            span.__exit__(exc_type, exc_value, traceback)
        return False


class MultiRecorder(Recorder):
    """Fan every observation out to a sequence of child recorders."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[Recorder]) -> None:
        self.children: List[Recorder] = list(children)

    def counter(self, name: str, value: int = 1) -> None:
        for child in self.children:
            child.counter(name, value)

    def event(self, kind: str, /, **fields) -> None:
        for child in self.children:
            child.event(kind, **fields)

    def span(self, name: str, /, **fields):
        return _MultiSpan([child.span(name, **fields) for child in self.children])

    def close(self) -> None:
        for child in self.children:
            child.close()


#: The process-wide default recorder.  A singleton so identity checks
#: (``get_recorder() is NULL_RECORDER``) can tell "uninstrumented".
NULL_RECORDER = NullRecorder()

_current: Recorder = NULL_RECORDER


def get_recorder() -> Recorder:
    """The recorder instrumented code should report to right now."""
    return _current


def set_recorder(recorder: Optional[Recorder]) -> Recorder:
    """Install ``recorder`` process-wide; returns the previous one.

    ``None`` restores the default :data:`NULL_RECORDER`.
    """
    global _current
    previous = _current
    _current = NULL_RECORDER if recorder is None else recorder
    return previous


@contextmanager
def use_recorder(recorder: Recorder) -> Iterator[Recorder]:
    """Install ``recorder`` for the duration of the ``with`` block."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
