"""The runner counts a job whose check fails as failed and keeps going.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run._require_library()

from workloads import KnowledgeCheck  # noqa: E402


def _small_check(tmp_path) -> KnowledgeCheck:
    return KnowledgeCheck(seed=1, workdir=str(tmp_path), tosses=3)


def test_correct_expectation_passes(tmp_path):
    records = run.closed_loop(_small_check(tmp_path), seconds=0)
    assert [record.problems for record in records] == [[]] * len(records)
    assert len(records) == 1 + run.MIN_JOBS
    assert all(record.units == 2**3 * 4 for record in records)


def test_wrong_expectation_counts_every_job_as_failed(tmp_path):
    workload = _small_check(tmp_path)
    workload.expected_size += 1
    records = run.closed_loop(workload, seconds=0, reference=True)
    assert len(records) == 1 + run.MIN_JOBS
    assert all(record.problems for record in records)
    assert all(record.reference_s > 0 for record in records)
    assert "expected 13" in records[-1].problems[0]
    metrics = run.end_to_end(records, setup_s=1.0)
    assert metrics["ok_frac"] == 0.0


def test_a_raising_job_is_failed_not_fatal(tmp_path):
    workload = _small_check(tmp_path)
    workload.formula = None
    records = run.closed_loop(workload, seconds=0)
    assert len(records) == 1 + run.MIN_JOBS
    assert all("Traceback" in record.problems[0] for record in records)
