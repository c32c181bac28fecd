import tracemalloc
from functools import cache

import numpy as np
import pytest

from eigenvanish import CyclotomicSetup, _scan, build_field
from eigenvanish._scan import _scan_python, scan_counts
from eigenvanish.ffield import generator_recurrence

BACKENDS = ["python", "numpy"]
FIELDS = [(7, 2), (13, 3), (11, 3), (19, 5)]


def _counts(setup, backend):
    ctx = build_field(setup, cap=1 << 22)
    rec, seed = generator_recurrence(ctx)
    return scan_counts(rec, seed, ctx.order, setup.p, setup.q, backend=backend)


@cache
def _oracle_counts(pq):
    # the python scan of (19, 5) takes seconds; run it once per module
    return _counts(CyclotomicSetup.create(*pq), "python")


@pytest.mark.parametrize("pq", FIELDS)
def test_backends_bit_identical(pq):
    setup = CyclotomicSetup.create(*pq)
    ref = _oracle_counts(pq)
    for backend in BACKENDS[1:]:
        got = _counts(setup, backend)
        assert np.array_equal(ref, got), backend


@pytest.mark.parametrize("block", [4, 8, 16])
def test_multi_block_matches_python(monkeypatch, block):
    # a small block makes every field span several blocks, so the state jump
    # C^block is checked against the oracle; n > block takes block = n
    monkeypatch.setattr(_scan, "_BLOCK", block)
    for pq in FIELDS:
        got = _counts(CyclotomicSetup.create(*pq), "numpy")
        assert np.array_equal(got, _oracle_counts(pq)), pq
    rng = np.random.default_rng(block)
    for n in (3, block + 3):
        rec, seed = rng.integers(0, 5, n), rng.integers(0, 5, n)
        for total in (block - 1, block, block + 1, 2 * block + 1):
            ref = scan_counts(rec, seed, total, 7, 5, backend="python")
            got = scan_counts(rec, seed, total, 7, 5, backend="numpy")
            assert np.array_equal(ref, got), (n, total)


def test_tiny_field_scan_allocates_little(f8):
    # the power table is sized to the field, not to the 65,536-row block
    setup, ctx = f8
    rec, seed = generator_recurrence(ctx)
    tracemalloc.start()
    try:
        scan_counts(rec, seed, ctx.order, setup.p, setup.q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


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
