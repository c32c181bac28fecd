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
    compute_period_table,
    periods,
)
from eigenvanish._scan import _scan_python, scan_counts
from eigenvanish.certify import DEFAULT_FIELD_CAP
from eigenvanish.ffield import _power_sums, generator_recurrence

FIELDS = [(7, 2), (13, 3), (11, 3), (19, 5)]


def _field(pq):
    """(ctx, setup), the arguments of compute_period_table."""
    setup = CyclotomicSetup.create(*pq)
    return build_field(setup, cap=1 << 22), setup


def _counts(pq):
    ctx, setup = _field(pq)
    return scan_counts(*generator_recurrence(ctx), ctx.order, setup.p, setup.q)


@cache
def _oracle_table(pq):
    # the python scan of (19, 5) takes seconds; run it once per module
    return compute_period_table(*_field(pq), backend="python")


def _oracle_counts(pq):
    return np.array(_oracle_table(pq).counts, dtype=np.int64)


def _zeros(mult, trace, states, total, q, joint=1):
    """`_scan._count_zeros` for the matrix `mult`, on its squarings from
    `_scan._chain`: total.bit_length() of them reach every giant step's
    jump M^(B·2^k), B·2^k < total."""
    squares = _scan._chain(np.asarray(mult, dtype=np.float64), q, total.bit_length())[0]
    return _scan._count_zeros(squares, trace, states, total, q, joint)


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
    # a 16-row block makes the state jump of every column cross many times;
    # products of 1 term take one giant step each, of 100 terms one or two
    # by the field's width, and of 2^62 terms the whole scan at once
    if block is not None:
        monkeypatch.setattr(_scan, "_BLOCK", block)
    fields = _production_fields()
    assert len(fields) == 45  # of the witness fields only (47, 2) is off the grid
    for product in (_scan._PRODUCT, 1, 100, 1 << 62):
        monkeypatch.setattr(_scan, "_PRODUCT", product)
        for (p, q), ctx in fields.items():
            got = scan_counts(*generator_recurrence(ctx), ctx.order, p, q)
            assert np.array_equal(got, _full_histogram(p, q)), (p, q, product)


@pytest.mark.parametrize("pq", FIELDS)
def test_backends_bit_identical(pq):
    # the count table of the production scan, and the whole period table of
    # compute_period_table's default route, against the python route
    assert np.array_equal(_counts(pq), _oracle_counts(pq))
    assert compute_period_table(*_field(pq)) == _oracle_table(pq)


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
        got = _counts(pq)
        assert np.array_equal(got, _oracle_counts(pq)), pq
    rng = np.random.default_rng(block)
    for n in (3, block + 3):
        companion = np.eye(n, k=1, dtype=np.int64)
        companion[-1] = rng.integers(0, 5, n)
        for mult in (companion, rng.integers(0, 5, (n, n))):
            trace, states = rng.integers(0, 5, n), rng.integers(0, 5, (n, 4))
            for total in (block - 1, block, block + 1, 2 * block + 1):
                ref = [_python_zeros(mult, trace, states[:, c], total, 5) for c in range(4)]
                got = _zeros(mult, trace, states, total, 5)
                assert got.tolist() == ref, (n, total)


def test_float64_terms_exact_just_below_the_bound(monkeypatch):
    # q = 67,108,859 has 2(q-1)^2 < 2^53: the largest dot products, near 2^52,
    # must still be reduced and tested for zero exactly, in every chunking of
    # the giant steps (totals 7 and 17 end in a partial one)
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
            height = 1 << min(8, total).bit_length() - 1
            for product in PRODUCTS:
                monkeypatch.setattr(_scan, "_PRODUCT", _product_terms(product, 4, height, total))
                got = _zeros(mult, trace, states, total, q)
                assert got.tolist() == ref, (mult.tolist(), total, product)
    assert sum(ref) > 0


def _product_terms(product, width, height, total):
    """A `_PRODUCT` value: one term (rounded up to one giant step), exactly
    one giant step, two giant steps less one term (so one step a product),
    three giant steps, or more than the whole scan (one product)."""
    step = width * height
    return {"term": 1, "step": step, "under two": 2 * step - 1, "three": 3 * step,
            "scan": width * (total + height)}[product]


PRODUCTS = ["term", "step", "under two", "three", "scan"]


@pytest.mark.parametrize("product", PRODUCTS)
@pytest.mark.parametrize("block", [1, 4, 16])
def test_chunked_products_match_python(monkeypatch, block, product):
    # every giant step's states come first, then one matmul per chunk of
    # them: totals that leave a partial last giant step (and, with three
    # steps a product, a partial last chunk), and joint groups read across
    # both, each against the python walk
    monkeypatch.setattr(_scan, "_BLOCK", block)
    rng = np.random.default_rng(block)
    n, q, width = 4, 3, 6
    mult, trace = rng.integers(0, q, (n, n)), rng.integers(0, q, n)
    states = rng.integers(0, q, (n, width))
    states[:, 2:4] = states[:, :2]  # columns 0 and 2 share their zeros
    found = 0
    for total in (1, block, block + 1, 4 * block, 7 * block - 1, 10 * block + 3):
        height = 1 << min(block, total).bit_length() - 1
        monkeypatch.setattr(_scan, "_PRODUCT", _product_terms(product, width, height, total))
        flags = [_python_zero_flags(mult, trace, states[:, c], total, q) for c in range(width)]
        for joint in (1, 2, 3):
            groups = width // joint
            ref = [sum(map(all, zip(*flags[i::groups]))) for i in range(groups)]
            got = _zeros(mult, trace, states, total, q, joint)
            assert got.tolist() == ref, (total, joint)
            found += sum(ref)
    assert found > 0


def test_tiny_field_scan_allocates_little(f8):
    # the power table is sized to the field, not to the 1,024-row block
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
    # (47, 2) has 178,481 terms per column, read through a 1,024-row float64
    # table of 23 entries (0.19 MB) into products of at most 2^15 terms (two
    # 0.25 MB buffers), from the states of its 175 giant steps (0.1 MB)
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
    counts = _counts(pq)
    assert counts.shape == (setup.p, setup.q)
    assert all(int(row.sum()) == setup.f for row in counts)


def test_python_reference_direct(f8):
    setup, ctx = f8
    cols, trace = generator_recurrence(ctx)
    got = _scan_python(cols, trace, ctx.order, setup.p, setup.q)
    assert got.dtype == np.int64
    assert np.array_equal(got, scan_counts(cols, trace, ctx.order, setup.p, setup.q))


def test_python_reference_refuses_columns_of_no_field_element(f8):
    # the oracle reads the modulus off two columns and alpha off the first,
    # and must get every column back; alpha·x^i != cols[i] once alpha = x + 1
    setup, ctx = f8
    cols, trace = generator_recurrence(ctx)
    assert cols[0] == (0, 1, 0)
    forged = ((1, 1, 0),) + cols[1:]
    with pytest.raises(InternalInvariant, match="multiplication matrix"):
        _scan_python(forged, trace, ctx.order, setup.p, setup.q)


def test_unknown_backend_rejected(f8):
    setup, ctx = f8
    for backend in ("fortran", "numba"):
        with pytest.raises(ValueError, match="unknown scan backend"):
            compute_period_table(ctx, setup, backend=backend)


def test_projective_scan_needs_the_whole_group(f8):
    setup, ctx = f8
    cols, trace = generator_recurrence(ctx)
    with pytest.raises(ValueError):
        scan_counts(cols, trace, ctx.order - 1, setup.p, setup.q)
    got = _scan_python(cols, trace, ctx.order - 1, setup.p, setup.q)
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


# ---------------------------------------------------------------------------
# the subfield step: F_{q^d}^*-orbits, d the largest proper divisor of n


def _int_power(a, exponent, q):
    """a^exponent mod q for a square int64 matrix, by plain binary powering."""
    result = np.eye(len(a), dtype=np.int64)
    for bit in bin(exponent)[2:]:
        result = result @ result % q
        if bit == "1":
            result = result @ a % q
    return result


def _projective_rows(cols, trace, p, q):
    """The rows by the projective step over F_q alone (d = 1): A^N = c·I, so
    the N/p terms T·M^j·alpha^m of each coset leader m give the row
    (q-1)·Z_m at trace 0 and N/p - Z_m elsewhere."""
    a = np.array(cols, dtype=np.int64).T
    n = len(a)
    span = (q**n - 1) // (q - 1) // p
    leader = [min(m * q**i % p for i in range(n)) for m in range(p)]
    reps = sorted(set(leader))
    states = np.hstack([_int_power(a, m, q)[:, :1] for m in reps])
    zeros = dict(zip(reps, _zeros(_int_power(a, p, q), trace, states, span, q)))
    return np.array([[(q - 1) * zeros[m]] + [span - zeros[m]] * (q - 1) for m in leader])


@pytest.mark.parametrize("pq, d, blocks", [
    ((5, 293), 2, 17),  # 17,170 orbits per column, against 5,030,412 terms at d = 1
    ((5, 107), 2, 3),
    ((11, 7), 5, 2),
    ((17, 3), 8, 1),
    ((13, 1279), 2, 123),
])
def test_subfield_scan_matches_the_projective_step(pq, d, blocks):
    p, q = pq
    setup = CyclotomicSetup.create(p, q)
    ctx = build_field(setup, cap=1 << 42)
    cols, trace = generator_recurrence(ctx)
    assert _scan._subfield_degree(ctx.n) == d
    span = (q**ctx.n - 1) // (q**d - 1) // p
    assert -(-span // _scan._BLOCK) == blocks
    got = scan_counts(cols, trace, ctx.order, p, q)
    assert np.array_equal(got, _projective_rows(cols, trace, p, q))
    assert tuple(map(tuple, got.tolist())) == periods._semiprimitive_rows(p, q, ctx.n)


def _alpha_power_columns(ctx, k):
    """The multiplication matrix of alpha^k in the field's basis, as columns."""
    power = schoolbook_powmod(ctx.alpha, k, ctx.modulus, ctx.q)
    basis = [(0,) * i + (1,) + (0,) * (ctx.n - 1 - i) for i in range(ctx.n)]
    return [schoolbook_mulmod(power, x, ctx.modulus, ctx.q) for x in basis]


def test_subfield_premise_is_checked_not_only_the_norm():
    # alpha^3 in F_{5^4}, p = 13: its norm alpha^468 has order 4 and generates
    # F_5^*, so the projective step over F_5 still holds and matches the
    # oracle; but gamma = alpha^(3·26) has order 8, not 24, so it does not
    # generate F_25^*, and the subfield step would give other rows
    setup = CyclotomicSetup.create(13, 5)
    ctx = build_field(setup)
    cols, trace = _alpha_power_columns(ctx, 3), ctx.basis_traces
    oracle = _scan_python(cols, trace, ctx.order, 13, 5)
    assert np.array_equal(_projective_rows(cols, trace, 13, 5), oracle)
    with pytest.raises(InternalInvariant, match=r"does not generate F_\{5\^2\}\^\*"):
        scan_counts(cols, trace, ctx.order, 13, 5)


def test_subfield_scan_needs_p_prime_to_q_to_the_d_minus_1():
    # F_16 with p = 3: p(q - 1) divides 15, but p divides q^2 - 1 = 3, so
    # F_4^* does not lie in <alpha^3>
    setup = CyclotomicSetup.create(5, 2)
    ctx = build_field(setup)
    cols, trace = generator_recurrence(ctx)
    with pytest.raises(ValueError, match="p\\(q\\^d - 1\\)"):
        scan_counts(cols, trace, ctx.order, 3, 2)
    got = _scan_python(cols, trace, ctx.order, 3, 2)
    assert int(got.sum()) == ctx.order


def _python_zero_flags(mult, trace, column, total, q):
    """Whether trace·M^j·s = 0, j < total, stepping s -> M·s in python."""
    n = len(trace)
    state, flags = [int(t) for t in column], []
    for _ in range(total):
        flags.append(sum(int(a) * b for a, b in zip(trace, state)) % q == 0)
        state = [sum(int(mult[i][j]) * state[j] for j in range(n)) % q for i in range(n)]
    return flags


@pytest.mark.parametrize("joint", [2, 3])
def test_joint_zeros_match_python(monkeypatch, joint):
    # the count of j at which all `joint` columns of a group vanish, across
    # block boundaries (an 8-row table)
    monkeypatch.setattr(_scan, "_BLOCK", 8)
    rng = np.random.default_rng(joint)
    n, q, width = 4, 3, 5
    mult, trace = rng.integers(0, q, (n, n)), rng.integers(0, q, n)
    states = rng.integers(0, q, (n, joint * width))
    states[:, width:2 * width] = states[:, :width]  # some joint zeros are the first block's
    for total in (7, 8, 9, 25):
        ref = []
        for i in range(width):
            group = range(i, joint * width, width)  # column i of each block
            flags = [_python_zero_flags(mult, trace, states[:, c], total, q) for c in group]
            ref.append(sum(map(all, zip(*flags))))
        got = _zeros(mult, trace, states, total, q, joint)
        assert got.tolist() == ref, total
        assert sum(ref) > 0


def test_one_squaring_chain_gives_squares_powers_and_the_doubled_block():
    rng = np.random.default_rng(7)
    q, n = 11, 3
    a = rng.integers(0, q, (n, n))
    block = rng.integers(0, q, (n, 2))
    exps = [1, 6, 13, 31]
    squares, powers, grown = _scan._chain(a.astype(np.float64), q, 5, exps, block, 3)
    assert [s.tolist() for s in squares] == [_int_power(a, 1 << k, q).tolist() for k in range(5)]
    assert [x.tolist() for x in powers] == [_int_power(a, e, q).tolist() for e in exps]
    want = np.hstack([_int_power(a, i, q) @ block % q for i in range(8)])
    assert grown.tolist() == want.tolist()


def test_cosets_match_the_least_element_of_each_coset():
    # brute force: the least of m·q^i mod p over i < p - 1, for every prime
    # p < 200 and q < 60 with q mod p not 0 or 1
    for p in (p for p in range(2, 200) if all(p % k for k in range(2, p))):
        residues = np.arange(p)
        for q in range(2, 60):
            if q % p in (0, 1):
                continue
            powers = [pow(q, i, p) for i in range(p - 1)]
            leader = (residues[:, None] * powers % p).min(axis=1).tolist()
            leaders, slot = _scan._cosets(p, q)
            assert leaders == sorted(set(leader)), (p, q)
            assert [leaders[s] for s in slot] == leader, (p, q)
