import numpy as np
import pytest

from eigenvanish import CyclotomicSetup, build_field
from eigenvanish._scan import _scan_python, scan_counts
from eigenvanish.ffield import generator_recurrence

BACKENDS = ["python", "numpy"]


def _counts(setup, backend):
    ctx = build_field(setup, cap=1 << 22)
    rec, seed = generator_recurrence(ctx)
    return scan_counts(rec, seed, ctx.order, setup.p, setup.q, backend=backend)


@pytest.mark.parametrize("pq", [(7, 2), (13, 3), (11, 3), (19, 5)])
def test_backends_bit_identical(pq):
    setup = CyclotomicSetup.create(*pq)
    ref = _counts(setup, "python")
    for backend in BACKENDS[1:]:
        got = _counts(setup, backend)
        assert np.array_equal(ref, got), backend


@pytest.mark.parametrize("pq", [(7, 2), (13, 3)])
def test_row_sums_equal_f(pq):
    # each period collects exactly f field elements
    setup = CyclotomicSetup.create(*pq)
    counts = _counts(setup, "numpy")
    assert counts.shape == (setup.p, setup.q)
    assert all(int(row.sum()) == setup.f for row in counts)


def test_python_reference_direct(f8):
    setup, ctx = f8
    rec, seed = generator_recurrence(ctx)
    got = np.zeros((setup.p, setup.q), dtype=np.int64)
    _scan_python(rec, seed, ctx.order, setup.p, setup.q, got)
    assert np.array_equal(got, scan_counts(rec, seed, ctx.order, setup.p, setup.q))


def test_unknown_backend_rejected(f8):
    setup, ctx = f8
    rec, seed = generator_recurrence(ctx)
    for backend in ("fortran", "numba"):
        with pytest.raises(ValueError):
            scan_counts(rec, seed, ctx.order, setup.p, setup.q, backend=backend)
