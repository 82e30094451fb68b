"""Backend plumbing through the sweep engines: rows are backend-independent.

``guarantee_sweep`` and ``robust_guarantee_sweep`` accept an explicit
``backend`` so a sweep can be pinned to a measure engine -- including
inside worker processes, where the parent's context-manager default
would otherwise not apply; the engine carries it there by binding the
row function to the backend.  Whatever the engine, every row must come
out as the identical exact Fractions.
"""

from fractions import Fraction

import pytest

from repro.attack.sweep import guarantee_sweep, sweep_row_of, sweep_tasks
from repro.probability import (
    get_default_backend,
    use_backend,
    wordmask,
)
from repro.robustness import robust_guarantee_sweep
from repro.robustness.checkpoint import _BackendBoundTask

MESSENGERS = [1, 2]
LOSSES = [Fraction(1, 2)]

BACKENDS = ("bitmask", "naive") + (
    ("wordarray",) if wordmask.available() else ()
)


@pytest.fixture(scope="module")
def reference_rows():
    return guarantee_sweep(MESSENGERS, LOSSES)


@pytest.mark.parametrize("backend", BACKENDS)
def test_sweep_row_of_backend_argument(backend, reference_rows):
    tasks = sweep_tasks(MESSENGERS, LOSSES)
    row_of = _BackendBoundTask(sweep_row_of, backend)
    rows = [row_of(task) for task in tasks]
    assert rows == reference_rows
    # the bound backend is scoped to the call, not leaked
    assert get_default_backend() == "bitmask"


@pytest.mark.parametrize("backend", BACKENDS)
def test_guarantee_sweep_backend_argument(backend, reference_rows):
    assert guarantee_sweep(MESSENGERS, LOSSES, backend=backend) == reference_rows
    assert get_default_backend() == "bitmask"


@pytest.mark.parametrize("backend", BACKENDS)
def test_parallel_rows_match_serial_under_backend(backend, reference_rows):
    rows = robust_guarantee_sweep(
        MESSENGERS, LOSSES, max_workers=2, backend=backend
    )
    assert rows == reference_rows


def test_parallel_inherits_ambient_backend(reference_rows):
    # no explicit argument: the parent's context-manager default is
    # resolved in the parent and shipped to the workers
    for backend in BACKENDS:
        with use_backend(backend):
            rows = robust_guarantee_sweep(MESSENGERS, LOSSES, max_workers=2)
        assert rows == reference_rows


def test_sweep_row_provenance_survives_backend_wrapper():
    task = sweep_tasks([1], LOSSES)[0]
    plain = sweep_row_of(task, provenance=True)
    for backend in BACKENDS:
        with use_backend(backend):
            routed = sweep_row_of(task, provenance=True)
        assert routed == plain
