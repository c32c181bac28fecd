import itertools
import random
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from conftest import grid_setups, production_setups, schoolbook_mulmod, schoolbook_powmod, trace
from sympy import Poly, Symbol, factorint, isprime, primerange

from eigenvanish import (
    BadInput,
    CyclotomicSetup,
    FieldTooLarge,
    NotCoprime,
    NotInSubgroup,
    build_field,
    certify_half_plus,
    least_primitive_root,
    multiplicative_order,
    vandiver_scan,
)
from eigenvanish import ffield
from eigenvanish.ffield import (
    _Kronecker,
    _coeffs_to_int,
    _group_order_primes,
    _int_to_coeffs,
    _irreducible_form,
    _is_irreducible,
    _is_primitive,
    _least_irreducible,
    _least_primitive,
    _norm,
    _orbit_leaders,
    _powers,
    dlog_order_p,
    generator_recurrence,
)


# ---------------------------------------------------------------------------
# oracles: the Frobenius trace sum, the schoolbook product and power (in
# conftest, which the unit-index oracles share), sympy's gcd, Rabin's test
# and the all-powers primitivity rule, the slow references that the power
# sums, the Kronecker product and gcd, Ben-Or's test and the norm test are
# compared against


def frobenius_traces(modulus, q):
    """t_i = Tr(x^i) for i < n in F_q[x]/(x^n + sum modulus[i] x^i), as the
    sum of the Frobenius powers (x^(q^j))^i, with the schoolbook product: the
    oracle for `_power_sums`."""
    n = len(modulus)
    frob = (0, 1) + (0,) * (n - 2) if n > 1 else (0,)
    acc = [[0] * n for _ in range(n)]
    for _ in range(n):
        power = (1,) + (0,) * (n - 1)
        for i in range(n):
            acc[i] = [(u + v) % q for u, v in zip(acc[i], power)]
            power = schoolbook_mulmod(power, frob, modulus, q)
        frob = schoolbook_powmod(frob, q, modulus, q)
    assert all(not any(row[1:]) for row in acc), "a trace outside the prime field"
    return tuple(row[0] for row in acc)


_X = Symbol("x")


def sympy_gcd_is_one(a, b, q):
    """gcd(a, b) = 1 over F_q by sympy, for little-endian coefficient lists:
    the oracle of `_Kronecker.coprime`, which Rabin's test also calls."""
    a, b = (Poly.from_list(list(reversed(c)) or [0], _X, modulus=q) for c in (a, b))
    return a.gcd(b).is_one


def rabin_is_irreducible(coeffs, q):
    """Rabin's test: x^(q^n) = x, and gcd(f, x^(q^(n/l)) - x) = 1 for each
    prime l | n."""
    n = len(coeffs)
    if n == 1:
        return True
    if coeffs[0] == 0:
        return False
    x = (0, 1) + (0,) * (n - 2)
    if schoolbook_powmod(x, q**n, coeffs, q) != x:
        return False
    full = list(coeffs) + [1]
    for ell in factorint(n):
        xp = schoolbook_powmod(x, q ** (n // ell), coeffs, q)
        diff = tuple((u - v) % q for u, v in zip(xp, x))
        if not any(diff) or not sympy_gcd_is_one(full, diff, q):
            return False
    return True


def oracle_field_choice(setup):
    """(modulus_int, generator encoding) from a lex search with the oracles."""
    q, n = setup.q, setup.n
    size = q**n
    modulus = next(
        c for c in (_int_to_coeffs(k, n, q) for k in range(size)) if rabin_is_irreducible(c, q)
    )
    primes = _group_order_primes(q, n)
    alpha = next(
        c
        for c in (_int_to_coeffs(k, n, q) for k in range(q, size))
        if all_powers_is_primitive(c, modulus, q, primes)
    )
    return _coeffs_to_int(modulus, q) + size, _coeffs_to_int(alpha, q)


def all_powers_is_primitive(x, modulus, q, primes):
    """x^((q^n-1)/ell) != 1 for every prime ell of q^n - 1, each by a
    schoolbook power: the oracle for `_is_primitive`."""
    n = len(modulus)
    one = (1,) + (0,) * (n - 1)
    return all(schoolbook_powmod(x, (q**n - 1) // ell, modulus, q) != one for ell in primes)


def _poly_mul(g, h, q):
    """Product of two coefficient lists (little-endian, leading terms included)."""
    out = [0] * (len(g) + len(h) - 1)
    for i, gi in enumerate(g):
        for j, hj in enumerate(h):
            out[i + j] = (out[i + j] + gi * hj) % q
    return out


def test_multiplicative_order_known():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(3, 11) == 5
    assert multiplicative_order(5, 19) == 9
    assert multiplicative_order(13, 43) == 21


def test_multiplicative_order_not_coprime():
    with pytest.raises(NotCoprime):
        multiplicative_order(14, 7)


def test_multiplicative_order_refuses_modulus_below_2():
    with pytest.raises(BadInput, match="modulus 1 < 2"):
        multiplicative_order(3, 1)


def test_least_primitive_root():
    assert least_primitive_root(7) == 3
    assert least_primitive_root(11) == 2
    assert least_primitive_root(13) == 2
    assert least_primitive_root(23) == 5
    assert least_primitive_root(41) == 6


def test_setup_golden():
    s = CyclotomicSetup.create(7, 2)
    assert (s.n, s.e, s.f, s.g) == (3, 2, 1, 3)
    s = CyclotomicSetup.create(11, 3)
    assert (s.n, s.e, s.f) == (5, 2, 22)
    s = CyclotomicSetup.create(13, 3)
    assert (s.n, s.e, s.f) == (3, 4, 2)
    s = CyclotomicSetup.create(19, 5)
    assert (s.n, s.e, s.f) == (9, 2, 102796)


def test_setup_guards():
    with pytest.raises(BadInput):
        CyclotomicSetup.create(4, 3)  # p not prime
    with pytest.raises(BadInput):
        CyclotomicSetup.create(3, 2)  # p too small
    with pytest.raises(BadInput):
        CyclotomicSetup.create(7, 7)  # q = p
    with pytest.raises(BadInput):
        CyclotomicSetup.create(7, 9)  # q not prime
    with pytest.raises(BadInput):
        CyclotomicSetup.create(13, 53)  # 53 ≡ 1 mod 13, order would be 1
    with pytest.raises(BadInput):
        CyclotomicSetup.create(7, 2, g=2)  # 2 has order 3, not primitive


def test_setup_facts_follow_from_create():
    # what create leaves unchecked follows from what it checks: n is the
    # least order, n >= 2, n | p - 1 and p(q - 1) | q^n - 1
    for p in primerange(5, 60):
        for q in primerange(2, 60):
            if q == p or q % p == 1:
                continue
            s = CyclotomicSetup.create(p, q)
            assert s.n >= 2 and s.n * s.e == p - 1, (p, q)
            assert pow(q, s.n, p) == 1 and all(pow(q, m, p) != 1 for m in range(1, s.n))
            assert s.p * s.f == q**s.n - 1 and (q**s.n - 1) % (p * (q - 1)) == 0, (p, q)


def test_setup_g_override():
    s = CyclotomicSetup.create(7, 2, g=5)
    assert s.g == 5


def test_build_field_golden_f8(f8):
    setup, ctx = f8
    assert ctx.modulus_int == 11  # x^3 + x + 1, the lex-least irreducible cubic
    assert ctx.encode(ctx.alpha) == 2  # x itself is primitive
    assert ctx.encode(ctx.zeta) == 2  # f = 1 so zeta = alpha
    assert ctx.basis_traces == (1, 0, 0)
    assert ctx.order == 7


def test_build_field_golden_f27(f27):
    setup, ctx = f27
    assert ctx.modulus_int == 34  # x^3 + 2x + 1
    assert ctx.encode(ctx.alpha) == 3
    assert ctx.encode(ctx.zeta) == 9  # alpha^2, order 13
    assert schoolbook_powmod(ctx.zeta, 13, ctx.modulus, 3) == (1, 0, 0)


def test_field_context_keeps_its_packed_form_out_of_eq_hash_and_repr(f27):
    setup, ctx = f27
    again = ffield.field_from_choice(setup, ctx.modulus_int, ctx.encode(ctx.alpha))
    assert again.kronecker is not ctx.kronecker
    assert again == ctx and hash(again) == hash(ctx)
    assert repr(again) == repr(ctx) == (
        "FieldContext(q=3, n=3, modulus=(1, 2, 0), alpha=(0, 1, 0), zeta=(0, 0, 1))"
    )
    fresh = _Kronecker(ctx.modulus, ctx.q)
    assert (ctx.kronecker.w, ctx.kronecker.f) == (fresh.w, fresh.f)


def test_field_too_large():
    s = CyclotomicSetup.create(19, 5)
    with pytest.raises(FieldTooLarge):
        build_field(s, cap=1 << 10)


def test_build_field_uncapped_large():
    # index-only contexts build fine far beyond any scan cap
    s = CyclotomicSetup.create(31, 7)
    ctx = build_field(s)
    assert ctx.order == 7**15 - 1
    assert schoolbook_powmod(ctx.zeta, 31, ctx.modulus, 7) == (1,) + (0,) * 14


@settings(max_examples=150, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5]),
    coeffs=st.lists(st.integers(0, 4), min_size=1, max_size=4),
)
def test_irreducibility_matches_sympy(q, coeffs):
    cand = tuple(c % q for c in coeffs)  # non-leading coefficients, monic implied
    x = Symbol("x")
    poly = Poly(
        x ** len(cand) + sum(c * x**i for i, c in enumerate(cand)), x, modulus=q
    )
    assert _is_irreducible(cand, q) == poly.is_irreducible


@given(k=st.integers(0, 3**6 - 1))
def test_coeff_int_roundtrip(k):
    assert _coeffs_to_int(_int_to_coeffs(k, 6, 3), 3) == k


def test_trace_frobenius_invariant(f27):
    setup, ctx = f27
    x = ctx.alpha
    for _ in range(10):
        assert trace(ctx, x) == trace(ctx, schoolbook_powmod(x, 3, ctx.modulus, 3))
        x = schoolbook_mulmod(x, ctx.alpha, ctx.modulus, 3)


def test_trace_is_additive(f27):
    setup, ctx = f27
    a, b = ctx.alpha, schoolbook_powmod(ctx.alpha, 5, ctx.modulus, 3)
    s = tuple((u + w) % ctx.q for u, w in zip(a, b))
    assert trace(ctx, s) == (trace(ctx, a) + trace(ctx, b)) % ctx.q


@pytest.mark.parametrize("pq", [(7, 2), (13, 3), (11, 3)])
def test_generator_recurrence_matches_power_walk(pq):
    # s_{k+1} = A·s_k, column i of A the coefficients of alpha·x^i, against the
    # packed walk of alpha^k; the trace row is the one of the basis x^i
    p, q = pq
    setup = CyclotomicSetup.create(p, q)
    ctx = build_field(setup, cap=1 << 20)
    cols, trace_row = generator_recurrence(ctx)
    assert len(cols) == ctx.n and all(len(col) == ctx.n for col in cols)
    assert trace_row == ctx.basis_traces
    form = ctx.kronecker
    alpha, power = form.pack(ctx.alpha), 1
    state = (1,) + (0,) * (ctx.n - 1)
    for _ in range(40):
        assert state == form.unpack(power)
        power = form.mul(power, alpha)
        state = tuple(sum(col[i] * s for col, s in zip(cols, state)) % q for i in range(ctx.n))


@pytest.mark.parametrize("p, q", [(13, 3), (19, 2), (43, 13), (17, 47), (5, 107)])
def test_dlog_order_p_matches_the_tuple_walk(p, q):
    # n = 3, 18, 21, 4 and 4: F_27, then the widest and the largest-q fields
    # the benchmark builds
    ctx = build_field(CyclotomicSetup.create(p, q))
    form = ctx.kronecker
    logs = dlog_order_p(ctx, p)
    powers = [(1,) + (0,) * (ctx.n - 1)]
    for _ in range(p - 1):
        powers.append(schoolbook_mulmod(powers[-1], ctx.zeta, ctx.modulus, q))
    # keyed by the packed zeta^k, in order of k
    assert [(form.unpack(z), k) for z, k in logs.items()] == list(zip(powers, range(p)))


def test_dlog_order_p_takes_p_minus_1_products(f27, monkeypatch):
    setup, ctx = f27
    products = []
    mul = _Kronecker.mul

    def counting(form, x, y):
        products.append(1)
        return mul(form, x, y)

    monkeypatch.setattr(_Kronecker, "mul", counting)
    logs = dlog_order_p(ctx, 13)
    assert len(logs) == 13 and len(products) == 12


@pytest.mark.parametrize("bad", ["one", "alpha"])
def test_dlog_order_p_refuses_a_forged_zeta(f27, bad):
    # zeta = 1 has order 1, and alpha order 26: neither walk first comes back
    # to 1 at k = p
    setup, ctx = f27
    forged = replace(ctx, zeta={"one": (1, 0, 0), "alpha": ctx.alpha}[bad])
    with pytest.raises(NotInSubgroup):
        dlog_order_p(forged, 13)


def test_modulus_is_lex_least(f8):
    # every smaller monic cubic over F_2 must be reducible
    setup, ctx = f8
    for k in range(ctx.modulus_int - 8):
        assert not _is_irreducible(_int_to_coeffs(k, 3, 2), 2)


MULMOD_QS = [2, 3, 5, 7, 13, 107]


def _residues(q, n):
    """A residue mod q of length n: zero, all q - 1 (the slot bound), or random."""
    return st.one_of(
        st.just((0,) * n),
        st.just((q - 1,) * n),
        st.lists(st.integers(0, q - 1), min_size=n, max_size=n).map(tuple),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data(), q=st.sampled_from(MULMOD_QS), n=st.integers(1, 60))
def test_mulmod_matches_schoolbook(data, q, n):
    a = data.draw(_residues(q, n))
    b = data.draw(_residues(q, n))
    modulus = data.draw(_residues(q, n))
    form = _Kronecker(modulus, q)
    got = form.unpack(form.mul(form.pack(a), form.pack(b)))
    assert got == schoolbook_mulmod(a, b, modulus, q)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), q=st.sampled_from(MULMOD_QS), n=st.integers(1, 60))
def test_powmod_matches_schoolbook(data, q, n):
    # every slot width the fields use; the schoolbook power costs n^2 per
    # product, so wide residues get shorter exponents
    exponent = data.draw(st.integers(0, 10**6 if n <= 12 else 10**3))
    a = data.draw(_residues(q, n))
    modulus = data.draw(_residues(q, n))
    form = _Kronecker(modulus, q)
    got = form.unpack(form.pow(form.pack(a), exponent))
    assert got == schoolbook_powmod(a, exponent, modulus, q)


@pytest.mark.parametrize("q", MULMOD_QS)
def test_mulmod_at_the_slot_bound(q):
    # every coefficient q - 1: the convolution sums and the reduction's
    # additions are as large as they get, for every n
    for n in range(1, 61):
        top = (q - 1,) * n
        zero = (0,) * n
        for modulus in (top, zero, (1,) + (0,) * (n - 1)):
            form = _Kronecker(modulus, q)
            x, y = form.pack(top), form.pack(zero)
            assert form.unpack(form.mul(x, x)) == schoolbook_mulmod(top, top, modulus, q)
            assert form.unpack(form.mul(y, x)) == zero


# small q, and the large q of the modulus-search tests, where the slots are
# widest
BARRETT_QS = [2, 3, 47, 2**31 - 1, 67_108_879, 1_000_000_241]


def _quotient_of_top_power(modulus, q):
    """floor(X^(2n-2) / F) over F_q for the monic F = X^n + sum modulus[i]
    X^i, by long division from the top: its n - 1 coefficients (none for
    n = 1), the oracle for the form's Barrett constant."""
    n = len(modulus)
    rest = [0] * (2 * n - 2) + [1]
    quotient = [0] * (n - 1)
    for i in range(2 * n - 2, n - 1, -1):
        c = quotient[i - n] = rest[i]
        rest[i] = 0
        for j in range(n):
            rest[i - n + j] = (rest[i - n + j] - c * modulus[j]) % q
    return quotient


@pytest.mark.parametrize("q", BARRETT_QS)
def test_barrett_product_matches_schoolbook_on_every_width(q):
    # random monic moduli, reducible ones included (modulus[0] = 0 among
    # them), random operands and operands with every slot at q - 1, for
    # every n up to 40; the Barrett constant against long division
    rng = random.Random(q)
    for n in range(1, 41):
        moduli = [(0,) * n, (q - 1,) * n] + [
            tuple(rng.randrange(q) for _ in range(n)) for _ in range(3)
        ]
        for modulus in moduli:
            form = _Kronecker(modulus, q)
            quotient = _quotient_of_top_power(modulus, q)
            assert form.mu_neg == form.pack(tuple(-c % q for c in quotient)), (n, modulus)
            operands = [(q - 1,) * n] + [
                tuple(rng.randrange(q) for _ in range(n)) for _ in range(3)
            ]
            for a, b in itertools.combinations_with_replacement(operands, 2):
                got = form.unpack(form.mul(form.pack(a), form.pack(b)))
                assert got == schoolbook_mulmod(a, b, modulus, q), (n, modulus, a, b)


# n = 18, 21, 4 and 3: the widest and the largest-q fields the benchmark
# builds, and F_27
SUB_FIELDS = [(19, 2), (43, 13), (5, 107), (13, 3)]


@cache
def _field(p, q):
    return build_field(CyclotomicSetup.create(p, q))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), pq=st.sampled_from(SUB_FIELDS))
def test_sub_matches_slotwise_difference(data, pq):
    ctx = _field(*pq)
    form, q = ctx.kronecker, ctx.q
    a = data.draw(_residues(q, ctx.n))
    b = data.draw(_residues(q, ctx.n))
    want = tuple((u - v) % q for u, v in zip(a, b))
    assert form.sub(form.pack(a), form.pack(b)) == form.pack(want)


@pytest.mark.parametrize("p, q", SUB_FIELDS)
def test_sub_on_the_powers_of_zeta(p, q):
    # x - x = 0, 0 - y and 1 - zeta^i, the index's targets, for every i < p
    ctx = _field(p, q)
    form = ctx.kronecker
    one = (1,) + (0,) * (ctx.n - 1)
    for z in dlog_order_p(ctx, p):
        zi = form.unpack(z)
        assert form.sub(z, z) == 0
        assert form.sub(0, z) == form.pack(tuple(-u % q for u in zi))
        assert form.sub(1, z) == form.pack(tuple((u - v) % q for u, v in zip(one, zi)))


@pytest.mark.parametrize("p, q, products", [(13, 3, 3), (19, 2, 18), (43, 13, 21), (5, 107, 4)])
def test_generator_recurrence_product_count(monkeypatch, p, q, products):
    # n products alpha·x^i, one per column of the multiplication matrix
    ctx = _field(p, q)
    calls = 0
    packed_mul = _Kronecker.mul

    def counting_mul(*args):
        nonlocal calls
        calls += 1
        return packed_mul(*args)

    monkeypatch.setattr(_Kronecker, "mul", counting_mul)
    generator_recurrence(ctx)
    assert calls == products


@pytest.mark.parametrize("q, max_degree", [(2, 6), (3, 5), (5, 4), (7, 3)])
def test_ben_or_matches_rabin_exhaustively(q, max_degree):
    for n in range(1, max_degree + 1):
        for cand in itertools.product(range(q), repeat=n):
            assert _is_irreducible(cand, q) == rabin_is_irreducible(cand, q), (q, cand)


@pytest.mark.parametrize("q, k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2)])
def test_ben_or_rejects_products_of_two_halves(q, k):
    # f = g·h with deg g = deg h = n/2 has no factor below degree n/2, so
    # Ben-Or only rejects it at its last step; g² likewise
    irreducible = [
        list(c) + [1]
        for c in itertools.islice(
            (c for c in itertools.product(range(q), repeat=k) if rabin_is_irreducible(c, q)), 3
        )
    ]
    for g, h in itertools.combinations_with_replacement(irreducible, 2):
        f = tuple(_poly_mul(g, h, q)[:-1])
        assert len(f) == 2 * k
        assert not _is_irreducible(f, q), (q, g, h)
        assert not rabin_is_irreducible(f, q)


@cache
def least_irreducible_by_sympy(q, k):
    """The first monic irreducible polynomial of degree k over F_q in
    encoding order, by sympy's test, as a coefficient list with its leading
    1; for k = 1 the first with no root 0, 1 or -1 if there is one (x - 2 for
    q > 3), so that Ben-Or's d = 1 step decides it."""
    if k == 1:
        return [(-2 if q > 3 else 1) % q, 1]
    for code in range(q**k):
        c = list(_int_to_coeffs(code, k, q)) + [1]
        if Poly.from_list(c[::-1], _X, modulus=q).is_irreducible:
            return c
    raise AssertionError("no irreducible polynomial")


def count_calls(monkeypatch, name):
    """A list that gets one entry per call of `_Kronecker.<name>` from now on."""
    calls, method = [], getattr(_Kronecker, name)

    def counting(*args):
        calls.append(1)
        return method(*args)

    monkeypatch.setattr(_Kronecker, name, counting)
    return calls


def window_gcds(q, k):
    """The gcds Ben-Or takes on an f whose smallest factor degree k <= n/2 lies
    in a whole window: one per window end 1, 2, 4, ..., 2^ceil(log2 k), the
    d = 1 step left to the roots 0, 1, -1 for q <= 3."""
    return (k - 1).bit_length() + (q > 3)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 9])
def test_ben_or_rejects_at_the_end_of_the_smallest_factors_window(monkeypatch, q, k):
    # k is the first or the last degree of its window {1}, {2}, (2, 4],
    # (4, 8], (8, 16]; f = g·h with deg h >= k, and n/2 at or past the
    # window's end, so f is rejected exactly at that end
    end = 1 << (k - 1).bit_length()
    g = least_irreducible_by_sympy(q, k)
    h = least_irreducible_by_sympy(q, max(k, 2 * end - k))
    f = tuple(_poly_mul(g, h, q)[:-1])
    assert len(f) // 2 >= end
    gcds = count_calls(monkeypatch, "coprime")
    assert not _is_irreducible(f, q), (q, g, h)
    assert len(gcds) == window_gcds(q, k), (q, k)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("n, cut", [(12, (5, 6)), (20, (9, 10))])
def test_ben_or_on_a_truncated_last_window(monkeypatch, q, n, cut):
    # n/2 = 6 and 10 cut the windows (4, 8] and (8, 16] short: a smallest
    # factor degree in the cut window, and an irreducible f, take every gcd
    # up to n/2, one more than the windows before it
    gcds = count_calls(monkeypatch, "coprime")
    want = window_gcds(q, n // 2)
    for k in cut:
        g, h = least_irreducible_by_sympy(q, k), least_irreducible_by_sympy(q, n - k)
        gcds.clear()
        assert not _is_irreducible(tuple(_poly_mul(g, h, q)[:-1]), q), (q, g, h)
        assert len(gcds) == want, (q, k)
    f = least_irreducible_by_sympy(q, n)[:-1]
    gcds.clear()
    assert _is_irreducible(tuple(f), q)
    assert len(gcds) == want
    assert _least_irreducible(q, n) == tuple(f)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13, 47])
def test_ben_or_takes_a_logarithmic_number_of_gcds(monkeypatch, q):
    # an irreducible modulus of degree n takes at most ceil(log2(n/2)) + 1
    # gcds, one per doubling window; the certify and grid moduli too
    moduli = [_least_irreducible(q, n) for n in range(2, 41 if q < 47 else 13)]
    moduli += [build_field(s).modulus for s in production_setups() if s.q == q]
    gcds = count_calls(monkeypatch, "coprime")
    for modulus in moduli:
        n = len(modulus)
        gcds.clear()
        assert _is_irreducible(modulus, q)
        assert len(gcds) <= (n // 2 - 1).bit_length() + 1, (q, n)


def test_ben_or_leaves_the_first_half_of_the_frobenius_chain(monkeypatch):
    # x^(q^d) for d <= n/2 stays on the form, so finishing the conjugate
    # table takes field products only for d > n/2
    powers = count_calls(monkeypatch, "pow")
    for q, n in [(2, 18), (3, 29), (13, 21), (5, 9)]:
        form = _irreducible_form(_least_irreducible(q, n), q)
        assert len(form._chain) == n // 2 + 1, (q, n)
        powers.clear()
        form.frobenius()
        assert len(powers) == n - 1 - n // 2, (q, n)


def test_frobenius_tables_match_schoolbook_on_every_production_field(monkeypatch):
    # x^(q^j), j < n, on the form that built the field and on the one the
    # verifier rebuilds from the stored choice, against schoolbook powers by
    # q; the verifier's route builds one form per field
    forms = count_calls(monkeypatch, "__init__")
    for setup in production_setups():
        ctx = build_field(setup)
        q, n = ctx.q, ctx.n
        forms.clear()
        again = ffield.field_from_choice(setup, ctx.modulus_int, ctx.encode(ctx.alpha))
        assert again == ctx and len(forms) == 1, (setup.p, q)
        want = [(0, 1) + (0,) * (n - 2)]
        while len(want) < n:
            want.append(schoolbook_powmod(want[-1], q, ctx.modulus, q))
        for form in (ctx.kronecker, again.kronecker):
            assert [form.unpack(y) for y in form.frobenius()] == want, (setup.p, q)


# zero polynomials as [] and as zero lists, constants, and zero top
# coefficients on either side; ([0], [], q) is gcd(0, 0) = 0
GCD_EDGES = [
    ([0], []), ([], []), ([0, 0], [0]), ([], [1]), ([0, 0], [3]), ([4, 0, 0], []),
    ([1, 1], [1, 1, 0, 0]), ([1, 2, 1, 0], [1, 1, 0]), ([0, 1, 0], [0, 0, 1, 0, 0]),
    ([2, 0, 1], [3, 1]), ([1, 0, 0, 1], [0, 2, 0, 0]),
]


def packed_coprime(a, b, q):
    """`_Kronecker.coprime` on two coefficient lists of length <= 9, packed
    in a form of degree 8 (the modulus plays no part in a gcd)."""
    form = _Kronecker((0,) * 8, q)
    return form.coprime(form.pack(a), form.pack(b))


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_gcd_is_one_matches_sympy_on_edges(q):
    for a, b in GCD_EDGES:
        a, b = [c % q for c in a], [c % q for c in b]
        for x, y in ((a, b), (b, a)):
            assert packed_coprime(x, y, q) == sympy_gcd_is_one(x, y, q), (x, y, q)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), q=st.sampled_from([2, 3, 5, 7, 13, 101]))
def test_gcd_is_one_matches_sympy(data, q):
    coeffs = st.lists(st.integers(0, q - 1), max_size=7)
    pad = st.lists(st.just(0), max_size=2)  # zero top coefficients
    a = data.draw(coeffs) + data.draw(pad)
    b = data.draw(coeffs) + data.draw(pad)
    assert packed_coprime(a, b, q) == sympy_gcd_is_one(a, b, q)


@pytest.mark.parametrize("q", MULMOD_QS + [2**61 - 1])
def test_coprime_at_the_slot_bound(q):
    # degree-n operands with every slot q - 1, so each Euclid step's sums
    # are as large as they get, against F, x^n + 1 and x^n - 1
    for n in range(1, 21):
        top = [q - 1] * (n + 1)
        form = _Kronecker(top[:n], q)
        others = (top, top[:n] + [1], [1] + [0] * (n - 1) + [1], [q - 1] + [0] * (n - 1) + [1])
        for other in others:
            for a, b in ((top, other), (other, top)):
                got = form.coprime(form.pack(a), form.pack(b))
                assert got == sympy_gcd_is_one(a, b, q), (q, n, a, b)


# the witness field that `certify_half_plus(p)` builds, for p = 7 ... 59
CERTIFY_FIELDS = [(7, 2), (11, 3), (19, 5), (23, 2), (31, 7), (43, 13), (47, 2), (59, 3)]


@pytest.mark.parametrize("p, q", CERTIFY_FIELDS)
def test_ben_or_runs_on_packed_ints_alone(monkeypatch, p, q):
    # each modulus, and the first 200 lexicographically smaller candidates
    # (all reducible), are decided with nothing unpacked
    ctx = _field(p, q)
    below = _coeffs_to_int(ctx.modulus, q)

    def refuse(*args):
        raise AssertionError("Ben-Or's test unpacked a packed int")

    monkeypatch.setattr(_Kronecker, "unpack", refuse)
    assert _is_irreducible(ctx.modulus, q)
    for k in range(min(below, 200)):
        assert not _is_irreducible(_int_to_coeffs(k, ctx.n, q), q), k


# no prime divides q - 1 for q = 2, so only field powers run there;
# q - 1 = 2, 2^2, 2·3·5, 2·3·7 and 2^2·3 for the others
NORM_FIELDS = [(2, 5), (2, 6), (2, 8), (3, 4), (5, 4), (31, 2), (43, 2), (13, 3)]


def _outer_moduli(q, n):
    """The lexicographically least and greatest monic irreducible moduli of
    degree n, by Rabin's test."""
    irreducible = (
        c for c in (_int_to_coeffs(k, n, q) for k in range(q**n)) if rabin_is_irreducible(c, q)
    )
    least = next(irreducible)
    *_, greatest = irreducible
    return least, greatest


@pytest.mark.parametrize("q, n", NORM_FIELDS)
def test_is_primitive_matches_all_powers(q, n):
    primes = _group_order_primes(q, n)
    phi = q**n - 1
    for ell in primes:
        phi -= phi // ell
    for modulus in _outer_moduli(q, n):
        form = _Kronecker(modulus, q)
        primitive = 0
        for k in range(1, q**n):
            x = _int_to_coeffs(k, n, q)
            got = _is_primitive(x, form, primes)
            assert got == all_powers_is_primitive(x, modulus, q, primes), (q, modulus, x)
            primitive += got
        assert primitive == phi, (q, modulus)


@pytest.mark.parametrize("q, n", NORM_FIELDS)
def test_horner_norm_matches_the_power(q, n):
    # every linear c1·x + c0: (-c1)^n·F(-c0/c1) against x^((q^n-1)/(q-1))
    for modulus in _outer_moduli(q, n):
        form = _Kronecker(modulus, q)
        for c0, c1 in itertools.product(range(q), range(1, q)):
            x = (c0, c1) + (0,) * (n - 2)
            power = schoolbook_powmod(x, (q**n - 1) // (q - 1), modulus, q)
            assert (_norm(x, form),) + (0,) * (n - 1) == power, (q, modulus, x)


def test_build_field_is_lex_least_on_the_grid():
    setups = grid_setups()
    assert len(setups) == 44
    for setup in setups:
        ctx = build_field(setup)
        got = (ctx.modulus_int, ctx.encode(ctx.alpha))
        assert got == oracle_field_choice(setup), (setup.p, setup.q)


@pytest.mark.parametrize("p", [19, 23, 31, 43, 47, 59])
def test_certify_witness_fields_are_lex_least(p):
    cert = certify_half_plus(p)
    assert cert.field_choices
    for q, modulus, generator in cert.field_choices:
        setup = CyclotomicSetup.create(p, q, g=cert.g)
        assert (modulus, generator) == oracle_field_choice(setup), (p, q)


def test_vandiver_witness_fields_are_lex_least():
    report = vandiver_scan(43)
    qs = sorted({t[0] for scan in report.scans for t in scan.tried})
    assert qs
    for q in qs:
        setup = CyclotomicSetup.create(43, q)
        ctx = build_field(setup)
        assert (ctx.modulus_int, ctx.encode(ctx.alpha)) == oracle_field_choice(setup), q


def test_power_sums_match_frobenius_traces():
    """Basis traces from the modulus, which the recurrence returns as its
    trace row, on the grid, every witness field of the two tests above, and
    (67, 2) with n = 66."""
    for setup in production_setups() + (CyclotomicSetup.create(67, 2),):
        ctx = build_field(setup)
        _, trace_row = generator_recurrence(ctx)
        assert trace_row == frobenius_traces(ctx.modulus, ctx.q), (setup.p, setup.q)


@pytest.mark.parametrize("p, q", [(43, 13), (67, 17)])
def test_build_field_product_count(monkeypatch, p, q):
    # the whole build (modulus search, generator search, zeta) in packed
    # field products: 429 and 512 here, since Ben-Or takes one gcd per
    # doubling window of degrees and leaves its Frobenius chain on the form
    # (548 and 657 before; 2,547 and 3,016 before Ben-Or ran on orbit
    # leaders only and a linear element was powered by base-q digits; 2,775
    # and 3,601 while every prime of q^n - 1 took a field power); a full
    # Rabin test per modulus candidate would take far more
    calls = 0
    packed_mul = ffield._Kronecker.mul

    def counting_mul(*args):
        nonlocal calls
        calls += 1
        return packed_mul(*args)

    monkeypatch.setattr(ffield._Kronecker, "mul", counting_mul)
    build_field(CyclotomicSetup.create(p, q))
    assert 0 < calls <= 1000


# ---------------------------------------------------------------------------
# the F_q identities of the field search: scaling orbits and Frobenius digits


def brute_orbit_leaders(q, n, stop):
    """Encodings k < stop of the monic f of degree n over F_q that are the
    least member of their F_q^*-scaling orbit, from every member
    f_lam = lam^(-n)·f(lam·x), lam in F_q^*, in numpy blocks of candidates:
    the oracle of `_orbit_leaders`."""
    out = []
    for lo in range(0, stop, 1 << 16):
        k = np.arange(lo, min(stop, lo + (1 << 16)), dtype=np.int64)
        digits = [k // q**i % q for i in range(n)]
        least = k.copy()
        for lam in range(2, q):
            member = sum(digits[i] * pow(lam, i - n, q) % q * q**i for i in range(n))
            np.minimum(least, member, out=least)
        out += k[least == k].tolist()
    return out


def plain_least_irreducible(q, n):
    """The first encoding that passes Ben-Or's test, every candidate tested:
    the modulus search without the orbit rule."""
    return next(
        c for c in (_int_to_coeffs(k, n, q) for k in range(q**n)) if _is_irreducible(c, q)
    )


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_orbit_leaders_match_brute_force_exhaustively(q):
    for n in range(1, 7):
        got = [_coeffs_to_int(c, q) for c in _orbit_leaders(q, n)]
        assert got == brute_orbit_leaders(q, n, q**n), (q, n)


@pytest.mark.parametrize("q", list(primerange(2, 48)))
def test_orbit_leaders_match_brute_force_from_the_start(q):
    # the first 300 leaders, the candidates a search meets first, for n <= 8
    for n in range(1, 9):
        got = [_coeffs_to_int(c, q) for c in itertools.islice(_orbit_leaders(q, n), 300)]
        assert got == brute_orbit_leaders(q, n, got[-1] + 1), (q, n)


def test_least_irreducible_matches_the_plain_search():
    small = [(q, n) for q in primerange(2, 51) for n in range(1, 21) if q**n <= 1 << 20]
    assert len(small) == 89
    for q, n in small:
        assert _least_irreducible(q, n) == plain_least_irreducible(q, n), (q, n)
    for setup in production_setups():
        want = plain_least_irreducible(setup.q, setup.n)
        assert build_field(setup).modulus == want, (setup.p, setup.q)


def plain_least_primitive(q, n):
    """The first encoding k >= q that `_is_primitive` accepts, every
    candidate tested in turn: the generator search without the monic
    associates."""
    form = _Kronecker(_least_irreducible(q, n), q)
    primes = _group_order_primes(q, n)
    return next(
        k for k in range(q, q**n) if _is_primitive(_int_to_coeffs(k, n, q), form, primes)
    )


def searched_generator(q, n):
    form = _Kronecker(_least_irreducible(q, n), q)
    return _coeffs_to_int(_least_primitive(form, _group_order_primes(q, n)), q)


def test_least_primitive_matches_the_plain_search():
    small = [(q, n) for q in primerange(2, 51) for n in range(2, 21) if q**n <= 1 << 20]
    assert len(small) == 74
    for q, n in small:
        assert searched_generator(q, n) == plain_least_primitive(q, n), (q, n)
    # non-linear generators: x^2 + x + 1 in F_{17^4}, x^3 + x in F_{2^18}
    assert searched_generator(17, 4) == 307
    assert searched_generator(2, 18) == 10
    for setup in production_setups():
        ctx = build_field(setup)
        assert ctx.encode(ctx.alpha) == plain_least_primitive(setup.q, setup.n), (setup.p, setup.q)


@pytest.mark.parametrize("q, n", [(17, 4), (47, 4)])
def test_one_field_power_verdict_per_monic_associate(monkeypatch, q, n):
    # within one search: one norm per t = c0/c1 met, and field powers for a
    # t only once, at the first candidate c1·(X + t) whose own norm passes;
    # a second search repeats every call, so nothing is kept across searches
    form = _Kronecker(_least_irreducible(q, n), q)
    primes = _group_order_primes(q, n)
    alpha = _least_primitive(form, primes)
    stop = _coeffs_to_int(alpha, q) + 1 if not any(alpha[2:]) else q * q
    small = [ell for ell in primes if (q - 1) % ell == 0]
    norms_want, powers_want = [], []
    for k in range(q, stop):  # the linear candidates up to the answer
        cand = _int_to_coeffs(k, n, q)
        t = cand[0] * pow(cand[1], -1, q) % q
        if t not in norms_want:
            norms_want.append(t)
        norm = _norm(cand, form)
        if all(pow(norm, (q - 1) // ell, q) != 1 for ell in small) and t not in powers_want:
            powers_want.append(t)
    linear = {"_norm": [], "_powers": []}

    def counting(name, real):
        def call(x, form):
            if not any(x[2:]):
                assert x[1] == 1, "a field call on a candidate, not its monic associate"
                linear[name].append(x[0])
            return real(x, form)
        return call

    monkeypatch.setattr(ffield, "_norm", counting("_norm", _norm))
    monkeypatch.setattr(ffield, "_powers", counting("_powers", _powers))
    for _ in range(2):
        linear["_norm"].clear()
        linear["_powers"].clear()
        assert _least_primitive(form, primes) == alpha
        assert linear["_norm"] == norms_want
        assert linear["_powers"] == powers_want


def test_modulus_search_does_no_work_proportional_to_q(monkeypatch):
    # q = 1,000,000,241 is 2 mod 3, so every x^3 + c has a root: only x^3
    # and x^3 + 1 lead their orbits, where a search that tried every binomial
    # would run q Ben-Or tests before x^3 + x + 1; a loop over F_q^* (a table
    # of scalings, or a scan of every top coefficient) fails on the count of
    # int powers instead of running for minutes
    calls = []
    ben_or = ffield._irreducible_form
    powers = 0

    def counting(coeffs, q):
        calls.append(coeffs)
        assert len(calls) <= 10, "the search tests too many candidates"
        return ben_or(coeffs, q)

    def counting_pow(*args):
        nonlocal powers
        powers += 1
        assert powers <= 1000, "the field layer took too many int powers"
        return pow(*args)

    monkeypatch.setattr(ffield, "_irreducible_form", counting)
    monkeypatch.setattr(ffield, "pow", counting_pow, raising=False)
    searches = [(2**31 - 1, 2, (1, 0)), (67_108_879, 2, (1, 0)), (1_000_000_241, 3, (1, 1, 0))]
    for q, n, want in searches:
        calls.clear()
        assert _least_irreducible(q, n) == want, q
    assert calls == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    for p, q in [(5, 67_108_879), (7, 1_000_000_241)]:
        calls.clear()
        ctx = build_field(CyclotomicSetup.create(p, q))
        assert schoolbook_powmod(ctx.zeta, p, ctx.modulus, q) == (1,) + (0,) * (ctx.n - 1)


@pytest.mark.parametrize("q", [2, 3, 5, 13, 47, 2**31 - 1])
def test_conjugate_pow_matches_pow_and_schoolbook(q):
    rng = random.Random(q)
    for n in (2, 3, 5, 8):
        modulus = _least_irreducible(q, n)
        form = _Kronecker(modulus, q)
        x = (0, 1) + (0,) * (n - 2)
        for j, conjugate in enumerate(form.frobenius()):
            assert form.unpack(conjugate) == schoolbook_powmod(x, q**j, modulus, q), (n, j)
        for trial in range(12):
            y = (rng.randrange(q), rng.randrange(1, q)) + (0,) * (n - 2)
            if trial % 4 == 3:  # not linear: binary powering
                y = y[:-1] + (rng.randrange(1, q),)
            for exponent in (0, 1, q - 1, q, q**n - 1, rng.randrange(q**n)):
                got = form.unpack(_powers(y, form)(exponent))
                assert got == form.unpack(form.pow(form.pack(y), exponent)), (n, y, exponent)
                assert got == schoolbook_powmod(y, exponent, modulus, q), (n, y, exponent)
