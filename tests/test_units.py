from dataclasses import replace

import pytest
from conftest import production_setups, schoolbook_mulmod, schoolbook_powmod, tuple_dlog

from eigenvanish import (
    BadEigenspaceIndex,
    CyclotomicSetup,
    IndexVector,
    MissingIndex,
    NotInSubgroup,
    beta_index_mod_p,
    build_field,
    compute_period_table,
    index_mod_p,
    index_vector,
    multiplicative_order,
    verify_congruences_ii,
    verify_identity_i,
)
from eigenvanish import units
from eigenvanish.ffield import _Kronecker, dlog_order_p
from eigenvanish.units import TRIVIAL, UNKNOWN, verdict


def brute_index(ctx, setup, r):
    """Independent oracle: form the unit product literally, term by term.

    beta = prod_{i=1}^{p-1} (1 - zeta^i)^(i^(p-1-r)), with full integer
    exponents, then a linear dlog of beta^f against zeta, all with the
    schoolbook product.
    """
    p, q, modulus = setup.p, setup.q, ctx.modulus
    one = (1,) + (0,) * (setup.n - 1)
    beta = one
    for i in range(1, p):
        zi = schoolbook_powmod(ctx.zeta, i, modulus, q)
        term = tuple((u - w) % q for u, w in zip(one, zi))
        power = schoolbook_powmod(term, i ** (p - 1 - r), modulus, q)
        beta = schoolbook_mulmod(beta, power, modulus, q)
    return tuple_dlog(ctx, schoolbook_powmod(beta, setup.f, modulus, q), p)


def per_r_index(ctx, setup, r):
    """Oracle: beta_r built afresh for one r, p - 1 field powers with the
    exponents i^(p-1-r) reduced mod q^n - 1, then the schoolbook tuple walk's
    dlog of beta_r^f; every product is the schoolbook one."""
    p, q, modulus = setup.p, setup.q, ctx.modulus
    one = (1,) + (0,) * (setup.n - 1)
    beta = zpow = one
    for i in range(1, p):
        zpow = schoolbook_mulmod(zpow, ctx.zeta, modulus, q)
        base = tuple((u - w) % q for u, w in zip(one, zpow))
        power = schoolbook_powmod(base, pow(i, p - 1 - r, ctx.order), modulus, q)
        beta = schoolbook_mulmod(beta, power, modulus, q)
    return tuple_dlog(ctx, schoolbook_powmod(beta, setup.f, modulus, q), p)


GOLDEN_INDICES = {
    (7, 2): {4: 1, 2: 0},
    (11, 3): {6: 10},
    (13, 3): {10: 4, 4: 11},
    (19, 7): {16: 14, 10: 17, 4: 14},
    (29, 7): {22: 15, 8: 4},
    (31, 2): {26: 12, 16: 10, 6: 7},
}


@pytest.mark.parametrize("pq", sorted(GOLDEN_INDICES))
def test_index_goldens(pq):
    setup = CyclotomicSetup.create(*pq)
    ctx = build_field(setup)
    for r, want in GOLDEN_INDICES[pq].items():
        assert index_mod_p(ctx, setup, r) == want


@pytest.mark.parametrize("pq", [(7, 2), (13, 3), (11, 3)])
def test_index_matches_literal_product(pq):
    setup = CyclotomicSetup.create(*pq)
    ctx = build_field(setup, cap=1 << 20)
    for r in range(2, setup.p - 1):
        assert index_mod_p(ctx, setup, r) == brute_index(ctx, setup, r)


def test_structural_vanishing():
    # i_r = 0 whenever n does not divide p - r (for even r, whenever n is
    # even), whatever the logs are
    for p, q in [(11, 2), (13, 5), (19, 2), (23, 3), (13, 3), (19, 7), (31, 5), (37, 7)]:
        setup = CyclotomicSetup.create(p, q)
        ctx = build_field(setup)
        junk = IndexVector(p=p, n=setup.n, g=setup.g, c=tuple(range(1, setup.e + 1)))
        for r in range(2, p - 1):
            if (p - r) % setup.n:
                assert index_mod_p(ctx, setup, r) == 0 == junk.at(r), (p, q, r)


# e from 2 to 10, n odd and even, q = 2 included
ORACLE_PAIRS = [
    (11, 3), (13, 3), (17, 2), (19, 5), (23, 2), (29, 5), (29, 7),
    (31, 2), (31, 5), (37, 7), (41, 2),
]


@pytest.mark.parametrize("pq", ORACLE_PAIRS)
def test_index_vector_matches_per_r_oracle(pq):
    setup = CyclotomicSetup.create(*pq)
    ctx = build_field(setup)
    vector = index_vector(ctx, setup)
    assert len(vector.c) == setup.e
    for r in range(2, setup.p - 1):  # odd r included
        assert vector.at(r) == per_r_index(ctx, setup, r), r


def test_index_vector_does_not_depend_on_g():
    for p, q in [(13, 3), (31, 5), (29, 7)]:
        roots = [g for g in range(2, p) if multiplicative_order(g, p) == p - 1]
        values = set()
        for g in roots:
            setup = CyclotomicSetup.create(p, q, g=g)
            vector = index_vector(build_field(setup), setup)
            values.add(tuple(vector.at(r) for r in range(2, p - 1)))
        assert len(values) == 1, (p, q)


def test_index_vector_takes_one_walk_per_field(monkeypatch):
    # one table of <zeta> per field gives every zeta^(g^k) and every log, and
    # reading the vector at every r walks nothing more
    calls = []

    def counting(ctx, p):
        calls.append(p)
        return dlog_order_p(ctx, p)

    monkeypatch.setattr(units, "dlog_order_p", counting)
    for p, q in ((31, 5), (43, 79), (61, 3)):
        calls.clear()
        setup = CyclotomicSetup.create(p, q)
        ctx = build_field(setup)
        vector = index_vector(ctx, setup)
        assert calls == [p]
        assert len(vector.c) == setup.e
        for r in range(2, p - 1):
            vector.at(r)
        assert calls == [p]


def unpaired_vector(ctx, setup):
    """c[k] = dlog_zeta((1 - zeta^(g^k))^f) for every k < e, each target by
    binary powering: the index vector without the coset pairing and without
    the Frobenius digits."""
    p, form = setup.p, ctx.kronecker
    logs = dlog_order_p(ctx, p)
    powers = list(logs)
    return tuple(
        logs[form.pow(form.sub(1, powers[pow(setup.g, k, p)]), setup.f)] for k in range(setup.e)
    )


def test_index_vector_matches_the_unpaired_vector(monkeypatch):
    # every grid, certify and vandiver-43 field; for odd n (q = 2 among them)
    # only the first e/2 cosets take a field power
    powers = []
    conjugate_pow = _Kronecker.conjugate_pow

    def counting(*args):
        powers.append(args)
        return conjugate_pow(*args)

    monkeypatch.setattr(_Kronecker, "conjugate_pow", counting)
    setups = production_setups()
    assert any(s.n % 2 and s.q == 2 for s in setups) and any(s.n % 2 == 0 for s in setups)
    for setup in setups:
        ctx = build_field(setup)
        powers.clear()
        vector = index_vector(ctx, setup)
        assert vector.c == unpaired_vector(ctx, setup), (setup.p, setup.q)
        assert len(powers) == (setup.e // 2 if setup.n % 2 else setup.e), (setup.p, setup.q)


@pytest.mark.parametrize("bad", ["one", "alpha"])
def test_index_vector_refuses_a_forged_zeta(f27, bad):
    setup, ctx = f27
    with pytest.raises(NotInSubgroup):
        index_vector(replace(ctx, zeta={"one": (1, 0, 0), "alpha": ctx.alpha}[bad]), setup)


def test_index_vector_refuses_a_target_off_the_table(f27):
    # with f = 1 the target 1 - zeta^(g^k) is no p-th root of unity, so its
    # log is missing from the table: NotInSubgroup, not KeyError
    setup, ctx = f27
    with pytest.raises(NotInSubgroup):
        index_vector(ctx, replace(setup, f=1))


def test_index_vector_range_check(f8):
    setup, ctx = f8
    vector = index_vector(ctx, setup)
    for bad in (-1, 0, 1, 6, 7, 8):
        with pytest.raises(BadEigenspaceIndex):
            vector.at(bad)
    with pytest.raises(BadEigenspaceIndex):
        index_mod_p(ctx, setup, 1)
    assert [vector.at(r) for r in range(2, 6)] == [0, 0, 1, 0]


def test_beta_index_record(f8):
    setup, ctx = f8
    rec = beta_index_mod_p(ctx, setup, 4)
    assert rec.r == 4
    assert rec.i_mod_p == 1
    assert rec.verdict == TRIVIAL
    rec = beta_index_mod_p(ctx, setup, 2)
    assert rec.i_mod_p == 0
    assert rec.verdict == UNKNOWN


def test_beta_index_guards(f8):
    setup, ctx = f8
    for bad in (0, 1, 3, 5, 6, 8):  # odd, out of range, or above p-3
        with pytest.raises(BadEigenspaceIndex):
            beta_index_mod_p(ctx, setup, bad)


def test_verdict_values():
    assert verdict(0) == UNKNOWN
    assert verdict(3) == TRIVIAL


@pytest.mark.parametrize("pq", [(7, 2), (11, 3), (13, 3), (19, 5), (23, 2)])
def test_identity_residual_zero(pq):
    setup = CyclotomicSetup.create(*pq)
    table = compute_period_table(build_field(setup), setup)
    assert verify_identity_i(setup, table) == 0


@pytest.mark.parametrize("pq", [(7, 2), (13, 3), (11, 3)])
def test_congruences_residuals_zero(pq):
    setup = CyclotomicSetup.create(*pq)
    ctx = build_field(setup)
    table = compute_period_table(ctx, setup)
    indices = {
        l: index_mod_p(ctx, setup, setup.p - l * setup.n)
        for l in range(1, setup.e, 2)
    }
    a0_res, odd_res = verify_congruences_ii(setup, table.a, indices)
    assert a0_res == 0
    assert odd_res and all(v == 0 for v in odd_res.values())


def test_congruences_missing_index(f27):
    setup, ctx = f27
    table = compute_period_table(ctx, setup)
    with pytest.raises(MissingIndex):
        verify_congruences_ii(setup, table.a, {})
