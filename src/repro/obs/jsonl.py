"""Append-only JSONL logs that survive being killed mid-write.

Every streamed artifact of the reproduction -- ``repro-trace/1`` traces,
the Section 8 sweep checkpoints and the ``repro-audit/1`` bundles that
shadow them -- is one JSON object per
line, appended in order.  A process killed mid-write damages at most the
line it was writing: the last one.  This module is the one place that
rule lives:

* :meth:`JsonlFormat.read` skips blank lines and drops an undecodable
  *final* line (the torn tail).  An undecodable line anywhere else, or a
  line that decodes to something other than a JSON object, is
  corruption, not a kill, and raises the format's error class.
* :class:`DurableAppender` opens a log for appending.  It first cuts the
  file back to exactly what :meth:`JsonlFormat.read` keeps -- so a new
  record can never fuse with a torn tail, and a final record that lost
  only its newline gets it back -- then writes each record as one
  complete line, flushed and fsynced before
  :meth:`DurableAppender.append` returns.

Header, schema and identity checks stay with each format, and so does
the error class each format raises.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple, Type, Union

from ..errors import ReproError

__all__ = ["DurableAppender", "JsonlFormat"]

#: One kept record: its 1-based line number in the log, and the object.
Record = Tuple[int, Dict]


@dataclass(frozen=True)
class JsonlFormat:
    """One JSONL artifact format: what its messages call a log of it,
    and the :class:`~repro.errors.ReproError` subclass damage raises."""

    label: str
    error: Type[ReproError]

    def read(self, source) -> List[Record]:
        """The ``(line number, record)`` pairs of a log, torn tail dropped.

        ``source`` is a path or an iterable of lines.  Damage anywhere
        but the final line raises :attr:`error` naming the line; a
        missing path raises :class:`FileNotFoundError`.
        """
        if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
            with open(source, "rb") as handle:
                lines = handle.read().split(b"\n")
        else:
            lines = [line.rstrip("\n") for line in source]
        return self._decode(lines)

    def _decode(self, lines: Iterable[Union[str, bytes]]) -> List[Record]:
        records: List[Record] = []
        torn = 0
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            if torn:
                raise self.error(
                    f"{self.label} line {torn} is not JSON but is not the final line"
                )
            try:
                record = json.loads(
                    line.decode("utf-8") if isinstance(line, bytes) else line
                )
            except (json.JSONDecodeError, UnicodeDecodeError):
                torn = number
                continue
            if not isinstance(record, dict):
                raise self.error(f"{self.label} line {number} is not a JSON object")
            records.append((number, record))
        return records


class DurableAppender:
    """A JSONL log opened for durable appends.

    Opening applies :meth:`JsonlFormat.read`'s rule to the file (raising
    the format's error on mid-file damage), keeps the surviving records
    in :attr:`records`, and cuts the file back to them.  :meth:`append`
    then writes whole lines only, each fsynced: a kill at any instant
    loses at most the record being written, as a torn final line.
    """

    def __init__(self, path, log_format: JsonlFormat) -> None:
        self.path = os.fspath(path)
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            data = b""
        lines = data.split(b"\n")
        #: The ``(line number, record)`` pairs the log held when opened.
        self.records = log_format._decode(lines)
        # Bytes through the newline after the last kept record; one past
        # the end means that record survived whole but lost its newline.
        last = self.records[-1][0] if self.records else 0
        keep = sum(len(line) + 1 for line in lines[:last])
        if keep < len(data):
            with open(self.path, "r+b") as handle:
                handle.truncate(keep)
        elif keep > len(data):
            with open(self.path, "ab") as handle:
                handle.write(b"\n")

    def append(self, record: Dict) -> None:
        """Durably write ``record`` as one canonical (sorted-key) line."""
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
