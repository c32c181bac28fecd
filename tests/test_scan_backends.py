import tracemalloc
from functools import cache

import numpy as np
import pytest
from conftest import characteristic_polynomial, grid_setups, schoolbook_mulmod, schoolbook_powmod

from eigenvanish import (
    CyclotomicSetup,
    FieldTooLarge,
    InternalInvariant,
    _scan,
    build_field,
    certify_half_plus,
)
from eigenvanish._scan import _scan_python, scan_counts
from eigenvanish.certify import DEFAULT_FIELD_CAP
from eigenvanish.ffield import _power_sums, generator_recurrence

BACKENDS = ["python", "numpy"]
FIELDS = [(7, 2), (13, 3), (11, 3), (19, 5)]


def _counts(setup, backend):
    ctx = build_field(setup, cap=1 << 22)
    cols, trace = generator_recurrence(ctx)
    return scan_counts(cols, trace, ctx.order, setup.p, setup.q, backend=backend)


@cache
def _oracle_counts(pq):
    # the python scan of (19, 5) takes seconds; run it once per module
    return _counts(CyclotomicSetup.create(*pq), "python")


# ---------------------------------------------------------------------------
# oracle: the full histogram over all q^n - 1 powers of alpha, blocked in numpy
# so that it stays fast enough for every production field, in the basis y^i of
# F_q[y]/(minimal polynomial of alpha): the linear recurrence of the traces
# Tr(alpha^k), where production reads the modulus basis x^i


def _histogram_oracle(rec, seed, total, p, q):
    """Histogram of (k mod p, Tr(alpha^k)), k < total: a block of terms per
    matmul of the power table U[j] = e_0^T C^j with the state, then one
    `bincount` of the (k mod p, t_k) pairs."""
    rec, seed = np.asarray(rec, dtype=np.int64), np.asarray(seed, dtype=np.int64)
    n = rec.shape[0]
    companion = np.zeros((n, n), dtype=np.int64)
    companion[:-1, 1:] = np.eye(n - 1, dtype=np.int64)
    companion[-1] = (-rec) % q
    block = max(n, min(1 << 16, total))
    u = np.zeros((block + n, n), dtype=np.int64)
    u[0, 0] = 1
    step, h = companion, 1
    while h < len(u):
        dst = u[h : 2 * h]
        np.matmul(u[: len(dst)], step, out=dst)
        np.remainder(dst, q, out=dst)
        step = step @ step % q
        h *= 2
    counts = np.zeros(p * q, dtype=np.int64)
    state, offsets, done = seed, np.arange(block, dtype=np.int64), 0
    while done < total:
        cnt = min(block, total - done)
        idx = (offsets[:cnt] + done) % p * q + u[:cnt] @ state % q
        counts += np.bincount(idx, minlength=p * q)
        state = u[block:] @ state % q
        done += cnt
    return counts.reshape(p, q)


@cache
def _production_fields():
    """{(p, q): field} for the 44 grid fields and every `certify` witness
    field under DEFAULT_FIELD_CAP for p = 19, 23 and 47."""
    setups = {(s.p, s.q): s for s in grid_setups()}
    for p in (19, 23, 47):
        for q, _, _ in certify_half_plus(p).field_choices:
            setup = CyclotomicSetup.create(p, q)
            if setup.field_size() <= DEFAULT_FIELD_CAP:
                setups.setdefault((p, q), setup)
    return {pq: build_field(setup, cap=DEFAULT_FIELD_CAP) for pq, setup in setups.items()}


@cache
def _full_histogram(p, q):
    ctx = _production_fields()[p, q]
    rec = characteristic_polynomial(ctx.alpha, ctx.modulus, q)
    return _histogram_oracle(rec, _power_sums(rec, q), ctx.order, p, q)


@pytest.mark.parametrize("block", [None, 16])
def test_projective_scan_matches_full_histogram(monkeypatch, block):
    # a 16-row block makes the state jump of every column cross many times
    if block is not None:
        monkeypatch.setattr(_scan, "_BLOCK", block)
    fields = _production_fields()
    assert len(fields) == 45  # of the witness fields only (47, 2) is off the grid
    for (p, q), ctx in fields.items():
        got = scan_counts(*generator_recurrence(ctx), ctx.order, p, q)
        assert np.array_equal(got, _full_histogram(p, q)), (p, q)


@pytest.mark.parametrize("pq", FIELDS)
def test_backends_bit_identical(pq):
    setup = CyclotomicSetup.create(*pq)
    ref = _oracle_counts(pq)
    for backend in BACKENDS[1:]:
        got = _counts(setup, backend)
        assert np.array_equal(ref, got), backend


def _python_zeros(mult, trace, column, total, q):
    """Zeros among the terms trace·M^j·s, j < total, stepping s -> M·s in python."""
    n = len(trace)
    state, zeros = [int(t) for t in column], 0
    for _ in range(total):
        zeros += sum(int(a) * b for a, b in zip(trace, state)) % q == 0
        state = [sum(int(mult[i][j]) * state[j] for j in range(n)) % q for i in range(n)]
    return zeros


@pytest.mark.parametrize("block", [4, 8, 12, 16])
def test_multi_block_matches_python(monkeypatch, block):
    # a small block makes every field span several blocks, so the state jump
    # M^B is checked against the oracle; block 12 takes an 8-row table, and
    # n > block makes the table shorter than the state
    monkeypatch.setattr(_scan, "_BLOCK", block)
    for pq in FIELDS:
        got = _counts(CyclotomicSetup.create(*pq), "numpy")
        assert np.array_equal(got, _oracle_counts(pq)), pq
    rng = np.random.default_rng(block)
    for n in (3, block + 3):
        companion = np.eye(n, k=1, dtype=np.int64)
        companion[-1] = rng.integers(0, 5, n)
        for mult in (companion, rng.integers(0, 5, (n, n))):
            trace, states = rng.integers(0, 5, n), rng.integers(0, 5, (n, 4))
            for total in (block - 1, block, block + 1, 2 * block + 1):
                ref = [_python_zeros(mult, trace, states[:, c], total, 5) for c in range(4)]
                got = _scan._count_zeros(mult, trace, states, total, 5)
                assert got.tolist() == ref, (n, total)


def test_float64_terms_exact_just_below_the_bound(monkeypatch):
    # q = 67,108,859 has 2(q-1)^2 < 2^53: the largest dot products, near 2^52,
    # must still be reduced and tested for zero exactly
    q = 67_108_859
    monkeypatch.setattr(_scan, "_BLOCK", 8)
    rng = np.random.default_rng(q)
    top = q - 1
    trace = np.array([top, top])
    # trace·(1, q-1) = q(q-1), a zero at the top of the range; the column
    # (top, 1) gives the same, and (top, top) gives 2(q-1)^2, not a zero
    states = np.array([[1, top, top, 3], [top, 1, top, q - 3]])
    for mult in (np.full((2, 2), top), np.eye(2, dtype=np.int64) * top,
                 rng.integers(0, q, (2, 2))):
        for total in (7, 8, 17):
            ref = [_python_zeros(mult, trace, states[:, c], total, q) for c in range(4)]
            got = _scan._count_zeros(mult, trace, states, total, q)
            assert got.tolist() == ref, (mult.tolist(), total)
    assert sum(ref) > 0


def test_tiny_field_scan_allocates_little(f8):
    # the power table is sized to the field, not to the 4,096-row block
    setup, ctx = f8
    cols, trace = generator_recurrence(ctx)
    tracemalloc.start()
    try:
        scan_counts(cols, trace, ctx.order, setup.p, setup.q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_largest_certify_scan_allocates_little():
    # (47, 2) has 178,481 terms per column, read through a 4,096-row float64
    # table of 23 entries (0.75 MB)
    ctx = _production_fields()[47, 2]
    cols, trace = generator_recurrence(ctx)
    tracemalloc.start()
    try:
        scan_counts(cols, trace, ctx.order, 47, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 1024 * 1024, peak


@pytest.mark.parametrize("pq", [(7, 2), (13, 3)])
def test_row_sums_equal_f(pq):
    # each period collects exactly f field elements
    setup = CyclotomicSetup.create(*pq)
    counts = _counts(setup, "numpy")
    assert counts.shape == (setup.p, setup.q)
    assert all(int(row.sum()) == setup.f for row in counts)


def test_python_reference_direct(f8):
    setup, ctx = f8
    cols, trace = generator_recurrence(ctx)
    got = np.zeros((setup.p, setup.q), dtype=np.int64)
    _scan_python(cols, trace, ctx.order, setup.p, setup.q, got)
    assert np.array_equal(got, scan_counts(cols, trace, ctx.order, setup.p, setup.q))


def test_python_reference_refuses_columns_of_no_field_element(f8):
    # the oracle reads the modulus off two columns and alpha off the first,
    # and must get every column back; alpha·x^i != cols[i] once alpha = x + 1
    setup, ctx = f8
    cols, trace = generator_recurrence(ctx)
    assert cols[0] == (0, 1, 0)
    forged = ((1, 1, 0),) + cols[1:]
    got = np.zeros((setup.p, setup.q), dtype=np.int64)
    with pytest.raises(InternalInvariant, match="multiplication matrix"):
        _scan_python(forged, trace, ctx.order, setup.p, setup.q, got)


def test_unknown_backend_rejected(f8):
    setup, ctx = f8
    cols, trace = generator_recurrence(ctx)
    for backend in ("fortran", "numba"):
        with pytest.raises(ValueError):
            scan_counts(cols, trace, ctx.order, setup.p, setup.q, backend=backend)


def test_projective_scan_needs_the_whole_group(f8):
    setup, ctx = f8
    cols, trace = generator_recurrence(ctx)
    with pytest.raises(ValueError):
        scan_counts(cols, trace, ctx.order - 1, setup.p, setup.q)
    got = scan_counts(cols, trace, ctx.order - 1, setup.p, setup.q, backend="python")
    assert int(got.sum()) == ctx.order - 1


def test_norm_must_generate_the_prime_field():
    # alpha^2 in F_81 has norm alpha^80 = 1, which does not generate F_3^*
    setup = CyclotomicSetup.create(5, 3)
    ctx = build_field(setup)
    alpha2 = schoolbook_powmod(ctx.alpha, 2, ctx.modulus, 3)
    basis = [(0,) * i + (1,) + (0,) * (ctx.n - 1 - i) for i in range(ctx.n)]
    cols = [schoolbook_mulmod(alpha2, x, ctx.modulus, 3) for x in basis]
    with pytest.raises(InternalInvariant, match="does not generate"):
        scan_counts(cols, ctx.basis_traces, ctx.order, setup.p, setup.q)


def test_numpy_scan_refuses_int64_overflow():
    # 2(q-1)^2 >= 2^63: a dot product of two entries below q could wrap
    # (numpy gave 1,580,547,981,856 for 2(q-1)^2), so no matmul runs
    q = 4_294_967_389  # 4 mod 5, so 5 | q + 1 = (q^2 - 1)/(q - 1)
    cols, trace = ((0, 1), (q - 1, 0)), (2, 0)
    with pytest.raises(FieldTooLarge, match="overflows"):
        scan_counts(cols, trace, q**2 - 1, 5, q)


def test_numpy_scan_refuses_float64_inexact(monkeypatch):
    # q = 67,108,879 has 2(q-1)^2 >= 2^53, so a dot product of two entries
    # below q may not be a float64 integer: refused before any matmul
    q = 67_108_879  # 4 mod 5, so 5 | q + 1 = (q^2 - 1)/(q - 1)

    def no_scan(*args):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(_scan, "_projective_counts", no_scan)
    cols, trace = ((0, 1), (q - 1, 0)), (2, 0)
    with pytest.raises(FieldTooLarge, match="overflows"):
        scan_counts(cols, trace, q**2 - 1, 5, q)
