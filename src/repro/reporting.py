"""Plain-text table and machine-readable JSON rendering.

Every experiment bench regenerates one of the paper's worked results and
prints it as a table; this module keeps the formatting in one place so the
tables in ``bench_output.txt`` and EXPERIMENTS.md stay consistent.  The
JSON helpers encode the values every artifact writer and ``--json`` tool
output shares (traces, checkpoints, audit bundles, tool summaries).
Exact values stay exact in JSON: a :class:`fractions.Fraction` is encoded
as its ``"p/q"`` string, never as a float.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Iterable, List, Mapping, Sequence

from .probability.fractionutil import format_fraction


def render_cell(value) -> str:
    """Format one table cell: exact fractions, booleans, plain text."""
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, tuple) and all(isinstance(item, Fraction) for item in value):
        return "[" + ", ".join(format_fraction(item) for item in value) + "]"
    return str(value)


def render_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render a titled, width-aligned plain-text table."""
    rendered_rows: List[List[str]] = [[render_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    separator = "-" * (sum(widths) + 2 * (len(widths) - 1))
    body = [line(list(headers)), separator]
    body.extend(line(row) for row in rendered_rows)
    return f"== {title} ==\n" + "\n".join(body)


def print_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render, print, and return a table (benches print for the tee'd log)."""
    text = render_table(title, headers, rows)
    print("\n" + text)
    return text


# ----------------------------------------------------------------------
# Exact JSON encoding
# ----------------------------------------------------------------------


#: Ints whose decimal rendering would exceed CPython's default
#: ``int_max_str_digits`` limit (4300 digits) make ``json.dumps`` raise,
#: so :func:`json_ready` encodes them as exact ``"0x..."`` hex strings
#: instead (hex conversion is not subject to the limit).  The bound is in
#: bits and sits safely below the first over-limit value, so the point
#: masks of >=100k-point systems serialise losslessly while
#: every int that *could* appear in an existing artifact keeps its plain
#: JSON number representation.
_INT_DECIMAL_SAFE_BITS = 14_000


def json_ready(value):
    """Recursively convert a value to something ``json.dumps`` accepts.

    Fractions become exact ``"p/q"`` strings (``"1/256"``, ``"1"``) --
    the reproduction never rounds a probability, not even in a report.
    Huge ints (wider than :data:`_INT_DECIMAL_SAFE_BITS` bits, e.g. the
    point mask of a 100k-point system) become exact ``"0x..."`` strings;
    ``int(text, 16)`` restores them.  Dataclasses, mappings, and
    sequences are converted element-wise.
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int) and value.bit_length() > _INT_DECIMAL_SAFE_BITS:
        return hex(value)
    if isinstance(value, (int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: json_ready(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(key): json_ready(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [json_ready(item) for item in items]
    return repr(value)


def fraction_from_json(value) -> Fraction:
    """Decode the exact ``"p/q"`` encoding of :func:`json_ready` back to a
    :class:`fractions.Fraction`.

    Accepts the string forms ``"p/q"`` and ``"n"`` plus plain ints (JSON
    round-trips small integers as numbers).  Floats are rejected: a float
    in a checkpoint or report means some producer rounded an exact value,
    which the reproduction never does.
    """
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"not an exact fraction encoding: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ValueError(f"not an exact fraction encoding: {value!r}")
