"""The sweep engines under each measure engine: rows are backend-independent.

``bitmask`` is the engine every sweep computes on; ``naive`` is the
oracle.  Both sweep entry points run in-process here, so a
``use_backend`` block reaches every row, and every row must come out as
the identical exact Fractions.
"""

from fractions import Fraction

import pytest

from repro.attack.sweep import guarantee_sweep, sweep_row_of, sweep_tasks
from repro.probability import BACKENDS, get_default_backend, use_backend
from repro.robustness import robust_guarantee_sweep

MESSENGERS = [1, 2]
LOSSES = [Fraction(1, 2)]


@pytest.fixture(scope="module")
def reference_rows():
    return guarantee_sweep(MESSENGERS, LOSSES)


@pytest.mark.parametrize("backend", BACKENDS)
def test_guarantee_sweep_under_backend(backend, reference_rows):
    with use_backend(backend):
        rows = guarantee_sweep(MESSENGERS, LOSSES)
    assert rows == reference_rows
    assert get_default_backend() == "bitmask"


@pytest.mark.parametrize("backend", BACKENDS)
def test_robust_sweep_rows_match_serial_under_backend(backend, reference_rows):
    with use_backend(backend):
        rows = robust_guarantee_sweep(MESSENGERS, LOSSES, max_workers=1)
    assert rows == reference_rows


def test_sweep_row_provenance_survives_backend_wrapper():
    task = sweep_tasks([1], LOSSES)[0]
    plain = sweep_row_of(task, provenance=True)
    for backend in BACKENDS:
        with use_backend(backend):
            routed = sweep_row_of(task, provenance=True)
        assert routed == plain
