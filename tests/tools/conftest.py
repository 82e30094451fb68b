"""Fixtures shared by the trace tools' tests."""

import json

import pytest

#: One record the trace fold cannot read: a counter without its name,
#: and a span-end whose seconds are not a number.
_MALFORMED_RECORDS = {
    "nameless-counter": {"type": "counter"},
    "non-numeric-seconds": {
        "type": "span-end", "name": "sweep_row", "span": 1, "seconds": "abc"
    },
}


@pytest.fixture(params=list(_MALFORMED_RECORDS), ids=list(_MALFORMED_RECORDS))
def malformed_trace(request, tmp_path):
    """A ``repro-trace/1`` file whose second record the fold cannot read."""
    header = {"seq": 0, "ts": 0.0, "type": "header", "schema": "repro-trace/1"}
    path = tmp_path / "malformed.jsonl"
    path.write_text(
        "".join(
            json.dumps(record) + "\n"
            for record in (header, _MALFORMED_RECORDS[request.param])
        ),
        encoding="utf-8",
    )
    return path
