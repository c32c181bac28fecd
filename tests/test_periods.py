from fractions import Fraction

import numpy as np
import pytest
from conftest import grid_setups, schoolbook_mulmod, trace
from sympy import primerange

from eigenvanish import (
    BadInput,
    CyclotomicSetup,
    FieldTooLarge,
    InternalInvariant,
    NonIntegralPeriod,
    build_field,
    compute_period_table,
    compute_v,
    multiplicative_order,
    periods,
)
from eigenvanish._scan import scan_counts
from eigenvanish.ffield import generator_recurrence


def period_counts_by_walk(setup, ctx):
    """Independent oracle: walk every nonzero field element directly.

    Bins alpha^k by the period class k mod p and by Tr(alpha^k), with no
    recurrence or scan kernel involved, and with the schoolbook product.
    """
    counts = [[0] * setup.q for _ in range(setup.p)]
    x = (1,) + (0,) * (setup.n - 1)
    for k in range(ctx.order):
        counts[k % setup.p][trace(ctx, x)] += 1
        x = schoolbook_mulmod(x, ctx.alpha, ctx.modulus, setup.q)
    return counts


def test_golden_eta_7_2(f8):
    setup, ctx = f8
    table = compute_period_table(ctx, setup)
    assert table.eta_values == (-1, 1, 1, -1, 1, -1, -1)
    assert table.v == 1
    assert table.d == (1, 0)
    assert table.a == (6, 6)


def test_golden_eta_13_3(f27):
    setup, ctx = f27
    table = compute_period_table(ctx, setup)
    vals = table.eta_values
    # the f-element orbit <q> = {1, 3, 9} and the zero class collect value 2
    cube_classes = {0, 1, 3, 9}
    for m, v in enumerate(vals):
        assert v == (2 if m in cube_classes else -1)
    assert sum(vals) == -1


@pytest.mark.parametrize("pq", [(7, 2), (13, 3), (11, 3)])
def test_counts_match_element_walk(pq):
    setup = CyclotomicSetup.create(*pq)
    ctx = build_field(setup, cap=1 << 20)
    table = compute_period_table(ctx, setup)
    walked = period_counts_by_walk(setup, ctx)
    for m in range(setup.p):
        assert list(table.counts[m]) == walked[m]


def test_eta_invariants(f27):
    setup, ctx = f27
    table = compute_period_table(ctx, setup)
    for row, eta in zip(table.counts, table.eta_values):
        assert sum(row) == setup.f
        assert row[1] == row[2]
        assert eta == row[0] - row[1]
        assert eta % setup.q == setup.f % setup.q


def _forge(m, row):
    """scan_counts with row m of its result replaced by `row`, returned as
    the int64 array that scan_counts returns."""
    def scan(*args, **kwargs):
        counts = [list(r) for r in scan_counts(*args, **kwargs)]
        counts[m] = list(row)
        return np.array(counts, dtype=np.int64)
    return scan


# F_8 = (7, 2, f = 1) has rows (0, 1) and (1, 0), eta = -1 and 1; F_27 =
# (13, 3, f = 2) has rows (2, 0, 0) and (0, 1, 1), eta = 2 and -1
FORGED_ROWS = [
    pytest.param("f27", 1, (0, 2, 0), NonIntegralPeriod,
                 "eta_1 counts (0, 2, 0) not Galois-fixed", id="not-rational"),
    pytest.param("f8", 2, (1, 1), InternalInvariant,
                 "eta_2 count total 2 != f = 1", id="count-total"),
    pytest.param("f8", 0, (1, 0), InternalInvariant,
                 "sum of periods is 1, expected -1", id="sum"),
    # a row that sums to f with equal entries off 0 has eta = f - q*row[1] ≡ f
    # (mod q), so an eta of 0 ≢ f breaks the count total first
    pytest.param("f27", 0, (0, 0, 0), InternalInvariant,
                 "eta_0 count total 0 != f = 2", id="mod-q"),
]


@pytest.mark.parametrize("field, m, row, error, message", FORGED_ROWS)
def test_forged_rows_break_the_invariants(request, monkeypatch, field, m, row, error, message):
    setup, ctx = request.getfixturevalue(field)
    monkeypatch.setattr(periods, "scan_counts", _forge(m, row))
    with pytest.raises(error) as err:
        compute_period_table(ctx, setup)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "pqv",
    [(7, 2, 1), (11, 3, 2), (19, 5, 4), (23, 2, 4), (29, 7, 3), (31, 7, 6)],
)
def test_compute_v_goldens(pqv):
    p, q, v = pqv
    assert compute_v(p, q, CyclotomicSetup.create(p, q).g) == v


def test_thaine_numbers_11_3():
    setup = CyclotomicSetup.create(11, 3)
    table = compute_period_table(build_field(setup, cap=1 << 20), setup)
    assert table.d == (0, -1)
    assert table.a == (-45, -1440)


def test_d_reconstructs_eta(f8):
    # eta_{g^i} - eta_0 = q^v * d_i exactly, as rational integers
    setup, ctx = f8
    table = compute_period_table(ctx, setup)
    vals = table.eta_values
    for i, d in enumerate(table.d):
        m = pow(setup.g, i, setup.p)
        assert Fraction(vals[m] - vals[0]) == Fraction(d * setup.q**table.v)


# ---------------------------------------------------------------------------
# even n: the closed form of the semiprimitive case, with no scan


def _unreachable(*args, **kwargs):
    raise AssertionError("a scan step ran")


def _setup_id(setup):
    return f"{setup.p},{setup.q}"


EVEN_SMALL_GRID = [s for s in grid_setups() if s.n % 2 == 0 and s.q**s.n <= 1 << 16]
EVEN_PAIRS = [
    (p, q)
    for p in primerange(5, 60)
    for q in primerange(2, 60)
    if q != p and q % p != 1
    and (n := multiplicative_order(q, p)) % 2 == 0 and q**n <= 1 << 24
]


def test_even_n_takes_28_of_the_44_grid_fields():
    assert sum(s.n % 2 == 0 for s in grid_setups()) == 28
    assert len(EVEN_SMALL_GRID) == 17 and len(EVEN_PAIRS) == 38


@pytest.mark.parametrize("setup", EVEN_SMALL_GRID, ids=_setup_id)
def test_closed_form_matches_the_python_scan(setup):
    ctx = build_field(setup, cap=1 << 16)
    table = compute_period_table(ctx, setup)
    assert table.counts == periods._semiprimitive_rows(setup.p, setup.q, setup.n)
    assert table == compute_period_table(ctx, setup, backend="python")


@pytest.mark.parametrize("pq", EVEN_PAIRS, ids=lambda pq: f"{pq[0]},{pq[1]}")
def test_closed_form_matches_the_scan(pq):
    setup = CyclotomicSetup.create(*pq)
    ctx = build_field(setup, cap=1 << 24)
    counts = scan_counts(*generator_recurrence(ctx), ctx.order, setup.p, setup.q)
    rows = tuple(map(tuple, counts.tolist()))
    assert periods._semiprimitive_rows(setup.p, setup.q, setup.n) == rows


def test_even_n_reaches_neither_the_recurrence_nor_the_scan(monkeypatch):
    setup = CyclotomicSetup.create(13, 5)  # n = 4
    ctx = build_field(setup)
    want = compute_period_table(ctx, setup, backend="python")
    monkeypatch.setattr(periods, "scan_counts", _unreachable)
    monkeypatch.setattr(periods, "generator_recurrence", _unreachable)
    assert compute_period_table(ctx, setup) == want
    assert want.eta_values == (25 - 2,) + (-2,) * 12  # q^d - span, then -span


def test_odd_n_still_scans(monkeypatch, f27):
    setup, ctx = f27
    totals = []

    def counted(*args):
        totals.append(args[2])
        return scan_counts(*args)

    monkeypatch.setattr(periods, "scan_counts", counted)
    compute_period_table(ctx, setup)
    assert totals == [ctx.order]


def test_even_n_keeps_the_float64_refusal(monkeypatch):
    # 5 | q + 1, so n = 2: refused before the closed form, as the scan refuses
    q = 4_294_967_389
    setup = CyclotomicSetup.create(5, q)
    ctx = build_field(setup, cap=10**20)
    monkeypatch.setattr(periods, "_semiprimitive_rows", _unreachable)
    with pytest.raises(FieldTooLarge) as closed:
        compute_period_table(ctx, setup)
    with pytest.raises(FieldTooLarge) as scanned:
        scan_counts(((0, 1), (q - 1, 0)), (2, 0), q**2 - 1, 5, q)
    assert str(closed.value) == str(scanned.value)


@pytest.mark.parametrize("field_pq, setup_pq", [
    ((5, 2), (13, 2)),  # F_16 for n = 12: the closed form would need only setup
    ((5, 2), (5, 3)),  # F_16 for F_81
    ((7, 2), (13, 3)),  # F_8 for F_27, odd n
])
def test_field_must_match_the_setup(monkeypatch, field_pq, setup_pq):
    ctx = build_field(CyclotomicSetup.create(*field_pq))
    setup = CyclotomicSetup.create(*setup_pq)
    monkeypatch.setattr(periods, "_semiprimitive_rows", _unreachable)
    monkeypatch.setattr(periods, "generator_recurrence", _unreachable)
    for backend in ("numpy", "python"):
        with pytest.raises(BadInput, match="needs F_"):
            compute_period_table(ctx, setup, backend=backend)
