"""The one torn-tail rule of ``repro.obs.jsonl``, proven at every byte."""

import json

import pytest

from repro.errors import TraceError
from repro.obs.jsonl import DurableAppender, JsonlFormat

LOG = JsonlFormat("log", TraceError)

RECORDS = [{"type": "header"}, {"n": 1, "p": "1/3"}, {"name": "μ"}, {"n": 2}]


def _log_bytes():
    """``RECORDS`` as a log with a blank line and one raw non-ASCII
    line, so a cut can also split a multi-byte character."""
    lines = [
        json.dumps(record, sort_keys=True, ensure_ascii=False) for record in RECORDS
    ]
    lines.insert(2, "")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _records(pairs):
    return [record for _line, record in pairs]


def test_every_byte_boundary(tmp_path):
    data = _log_bytes()
    # Byte offset just past each record's closing brace.
    ends = []
    offset = 0
    for line in data.split(b"\n")[:-1]:
        offset += len(line)
        if line:
            ends.append(offset)
        offset += 1
    path = tmp_path / "log.jsonl"
    for cut in range(len(data) + 1):
        whole = sum(1 for end in ends if end <= cut)
        kept = RECORDS[:whole]
        path.write_bytes(data[:cut])
        assert _records(LOG.read(path)) == kept, cut
        lines = data[:cut].decode("utf-8", "replace").splitlines()
        assert _records(LOG.read(lines)) == kept, cut
        log = DurableAppender(path, LOG)
        assert _records(log.records) == kept, cut
        # cut back to exactly the kept records, each a complete line
        kept_bytes = data[: ends[whole - 1] + 1] if whole else b""
        assert path.read_bytes() == kept_bytes, cut
        log.append({"n": 3})
        assert _records(LOG.read(path)) == kept + [{"n": 3}], cut


def test_line_numbers_count_blank_lines():
    assert LOG.read(['{"a": 1}', "", '{"b": 2}']) == [(1, {"a": 1}), (3, {"b": 2})]


def test_garbage_before_the_final_line_raises_the_format_error(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n{torn\n{"b": 2}\n')
    with pytest.raises(TraceError, match="log line 2 is not JSON but is not the final"):
        LOG.read(path)
    with pytest.raises(TraceError, match="log line 2"):
        DurableAppender(path, LOG)
    # the refused log is left as it was
    assert path.read_text() == '{"a": 1}\n{torn\n{"b": 2}\n'


def test_missing_log(tmp_path):
    path = tmp_path / "never-written.jsonl"
    with pytest.raises(FileNotFoundError):
        LOG.read(path)
    log = DurableAppender(path, LOG)
    assert log.records == []
    assert not path.exists()
    log.append({"b": 1, "a": 2})
    assert path.read_text() == '{"a": 2, "b": 1}\n'
