"""Structured JSONL tracing: schema ``repro-trace/1``.

A :class:`TraceRecorder` streams one JSON object per line to a file (or
any ``write()``-able), so a sweep, fixpoint, or chaos run leaves a
machine-readable account of *how* it computed its exact results.  The
``tools/tracereport`` CLI folds a trace back into the plain-text
summaries of :func:`repro.reporting.render_table`.

Schema ``repro-trace/1``
------------------------

Every record carries ``seq`` (a per-trace monotonic sequence number) and
``ts`` (seconds since the recorder was created, from the quarantined
:mod:`repro.obs.clock`).  The first record is always the header::

    {"seq": 0, "ts": 0.0, "type": "header", "schema": "repro-trace/1"}

followed by any number of:

``counter``
    ``{"type": "counter", "name": ..., "value": <int>}``
``event``
    ``{"type": "event", "kind": ..., "fields": {...}}``
``span-start`` / ``span-end``
    ``{"type": "span-start", "name": ..., "span": <id>, "parent": <id|null>,
    "fields": {...}}`` and ``{"type": "span-end", "name": ..., "span": <id>,
    "seconds": <float>}``; ``span`` ids pair the two records, ``parent``
    reconstructs the hierarchy.

Values are encoded with :func:`repro.reporting.json_ready`, so an exact
:class:`fractions.Fraction` is written as its ``"p/q"`` string -- a trace
never rounds a probability -- and can be decoded back with
:func:`repro.reporting.fraction_from_json`.

Like every recorder, tracing is observe-only: the instrumented code
cannot read anything back out of a trace, and an instrumented run
produces byte-identical results to an uninstrumented one.
"""

from __future__ import annotations

import json
from typing import Dict, List

from ..errors import TraceError
from ..reporting import json_ready
from .clock import perf_counter
from .jsonl import JsonlFormat
from .recorder import Recorder

__all__ = ["TRACE_SCHEMA", "TraceRecorder", "read_trace"]

#: Identifier written into (and demanded from) every trace header.
TRACE_SCHEMA = "repro-trace/1"

_TRACE_LOG = JsonlFormat("trace", TraceError)


class _TraceSpan:
    """One live span: emits ``span-start`` on enter, ``span-end`` on exit."""

    __slots__ = ("_recorder", "_name", "_fields", "_span_id", "_started")

    def __init__(self, recorder: "TraceRecorder", name: str, fields: Dict) -> None:
        self._recorder = recorder
        self._name = name
        self._fields = fields
        self._span_id = 0
        self._started = 0.0

    def __enter__(self) -> "_TraceSpan":
        recorder = self._recorder
        self._span_id = recorder._next_span_id
        recorder._next_span_id += 1
        parent = recorder._span_stack[-1] if recorder._span_stack else None
        recorder._span_stack.append(self._span_id)
        recorder._emit(
            {
                "type": "span-start",
                "name": self._name,
                "span": self._span_id,
                "parent": parent,
                "fields": self._fields,
            }
        )
        self._started = perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        elapsed = perf_counter() - self._started
        recorder = self._recorder
        if recorder._span_stack and recorder._span_stack[-1] == self._span_id:
            recorder._span_stack.pop()
        recorder._emit(
            {
                "type": "span-end",
                "name": self._name,
                "span": self._span_id,
                "seconds": round(elapsed, 9),
            }
        )
        return False


class TraceRecorder(Recorder):
    """Stream every observation as one JSON line (schema ``repro-trace/1``).

    ``destination`` is a path (the file is created/truncated and owned
    by the recorder -- :meth:`close` closes it) or any object with a
    ``write(str)`` method (borrowed -- :meth:`close` only flushes).
    """

    __slots__ = (
        "_handle",
        "_owns_handle",
        "_origin",
        "_seq",
        "_next_span_id",
        "_span_stack",
        "records_written",
    )

    def __init__(self, destination) -> None:
        if hasattr(destination, "write"):
            self._handle = destination
            self._owns_handle = False
        else:
            self._handle = open(destination, "w", encoding="utf-8")
            self._owns_handle = True
        self._seq = 0
        self._next_span_id = 1
        self._span_stack: List[int] = []
        #: Total records emitted, header included (monotonic).
        self.records_written = 0
        self._origin = perf_counter()
        self._emit({"type": "header", "schema": TRACE_SCHEMA})

    # -- plumbing --------------------------------------------------------

    def _emit(self, record: Dict) -> None:
        record["seq"] = self._seq
        record["ts"] = round(perf_counter() - self._origin, 9)
        self._seq += 1
        self.records_written += 1
        self._handle.write(json.dumps(json_ready(record), sort_keys=True) + "\n")

    # -- Recorder protocol ----------------------------------------------

    def counter(self, name: str, value: int = 1) -> None:
        self._emit({"type": "counter", "name": name, "value": value})

    def event(self, kind: str, /, **fields) -> None:
        self._emit({"type": "event", "kind": kind, "fields": fields})

    def span(self, name: str, /, **fields) -> _TraceSpan:
        return _TraceSpan(self, name, fields)

    def close(self) -> None:
        if self._owns_handle:
            if not self._handle.closed:
                self._handle.close()
        else:
            flush = getattr(self._handle, "flush", None)
            if flush is not None:
                flush()


def read_trace(source) -> List[Dict]:
    """Load the records of a JSONL trace file (or iterable of lines).

    A final line that does not decode as JSON is the half-written tail
    of a killed run and is dropped; an undecodable line *before* the end
    raises :class:`~repro.errors.TraceError` (the rule of
    :class:`repro.obs.jsonl.JsonlFormat`).  The first record must be a
    ``repro-trace/1`` header.
    """
    records = [record for _line, record in _TRACE_LOG.read(source)]
    if not records:
        raise TraceError("trace is empty: no header record")
    header = records[0]
    if header.get("type") != "header" or header.get("schema") != TRACE_SCHEMA:
        raise TraceError(
            f"trace does not start with a {TRACE_SCHEMA!r} header: {header!r}"
        )
    return records
