from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st
from sympy import I, expand, im, jacobi_symbol, primerange, re, sqrt

from eigenvanish import (
    BadPrime,
    EvenExponent,
    NoWitnessFound,
    NotARepresentation,
    SearchTooLarge,
    BoundTooSmall,
    QfSolution,
    class_number,
    cornacchia,
    density_estimate,
    find_good_prime,
    legendre,
    power_representation,
    reduced_forms_count,
    represent_all,
    stickelberger_check,
    stickelberger_sign,
)

ODD_PRIMES = [int(x) for x in primerange(3, 200)]


def exhaustive_reps(D, N):
    out = []
    for y in range(isqrt(N // D) + 1):
        rest = N - D * y * y
        x = isqrt(rest)
        if x * x == rest:
            out.append((x, y))
    return sorted(out)


@settings(max_examples=200, deadline=None)
@given(a=st.integers(-300, 300), p=st.sampled_from(ODD_PRIMES))
def test_legendre_matches_sympy(a, p):
    assert legendre(a, p) == jacobi_symbol(a, p)


def test_legendre_guards():
    with pytest.raises(BadPrime):
        legendre(3, 8)
    with pytest.raises(BadPrime):
        legendre(3, 2)


@pytest.mark.parametrize("p,h", [(7, 1), (11, 1), (23, 3), (47, 5), (163, 1)])
def test_class_number_goldens(p, h):
    data = class_number(p)
    assert data.h == h
    assert data.V + data.R == (p - 1) // 2
    assert data.h % 2 == 1


def euler_class_number(p):
    """(R, V, h) from the residue and nonresidue sums over [1, p-1], each x
    classed by Euler's criterion: the loop `class_number` used to run, kept
    as its oracle."""
    res_sum = nonres_sum = 0
    for x in range(1, p):
        if legendre(x, p) == 1:
            res_sum += x
        else:
            nonres_sum += x
    assert res_sum % p == 0 and nonres_sum % p == 0
    R, V = res_sum // p, nonres_sum // p
    return R, V, V - R


def test_class_number_matches_euler_sums():
    for p in primerange(7, 3000):
        if p % 4 == 3:
            data = class_number(p)
            assert (data.R, data.V, data.h) == euler_class_number(p), p


def test_class_number_guards():
    with pytest.raises(BadPrime):
        class_number(13)  # 13 ≡ 1 mod 4
    with pytest.raises(BadPrime):
        class_number(3)
    for composite in (15, 91):  # both ≡ 3 mod 4; 91 once gave h = 37
        with pytest.raises(BadPrime):
            class_number(composite)


def test_reduced_forms_match_class_number():
    for p in ODD_PRIMES:
        if p % 4 == 3 and p > 3:
            assert reduced_forms_count(-p) == class_number(p).h, p


def test_cornacchia_goldens():
    assert cornacchia(7, 11) == (2, 1)
    assert cornacchia(7, 2) is None
    assert cornacchia(7, 7) == (0, 1)
    assert cornacchia(11, 47) == (6, 1)
    assert cornacchia(23, 59) == (6, 1)


@settings(max_examples=150, deadline=None)
@given(
    D=st.sampled_from([7, 11, 19, 23, 31, 43]),
    N=st.sampled_from([int(x) for x in primerange(2, 3000)]),
)
def test_cornacchia_matches_exhaustive(D, N):
    got = cornacchia(D, N)
    want = [(x, y) for x, y in exhaustive_reps(D, N) if x >= 0 and y >= 1]
    if got is None:
        assert not want
    else:
        x, y = got
        assert x * x + D * y * y == N
        assert (x, y) in want


def test_represent_all_small():
    assert represent_all(7, 0) == [(0, 0)]
    assert represent_all(7, 8) == [(1, 1)]
    assert represent_all(7, 16) == [(3, 1), (4, 0)]
    assert represent_all(7, 7) == [(0, 1)]
    assert represent_all(7, 5) == []


def test_represent_all_two_classes():
    # 4*59^3 carries both a primitive and an imprimitive solution for D = 23
    reps = represent_all(23, 4 * 59**3)
    assert reps == [(396, 170), (708, 118)]


@settings(max_examples=120, deadline=None)
@given(D=st.sampled_from([7, 11, 23, 31]), N=st.integers(0, 4000))
def test_represent_all_methods_agree(D, N):
    want = exhaustive_reps(D, N)
    assert represent_all(D, N, method="exhaustive") == want
    assert represent_all(D, N, method="factor") == want


def test_represent_all_search_limit():
    with pytest.raises(SearchTooLarge):
        represent_all(7, (1 << 44) + 2, method="exhaustive")


def test_qfsolution_check():
    QfSolution(D=7, N=8, xval=1, yval=1).check()
    with pytest.raises(NotARepresentation):
        QfSolution(D=7, N=8, xval=2, yval=1).check()


def test_power_representation_golden():
    sol = power_representation(2, 1, 3, 7)
    assert (sol.xval, sol.yval) == (-34, 5)
    assert sol.N == 11**3


def test_power_representation_even_exponent():
    with pytest.raises(EvenExponent):
        power_representation(2, 1, 4, 7)
    with pytest.raises(EvenExponent):
        power_representation(2, 1, 0, 7)


@settings(max_examples=60, deadline=None)
@given(
    u=st.integers(-9, 9),
    w=st.integers(-9, 9),
    s=st.sampled_from([1, 3, 5, 7]),
    p=st.sampled_from([7, 11, 23]),
)
def test_power_representation_matches_symbolic(u, w, s, p):
    sol = power_representation(u, w, s, p)
    sym = expand((u + w * sqrt(p) * I) ** s)
    assert sol.xval == int(re(sym))
    assert sol.yval == int(im(sym) / sqrt(p))
    assert sol.xval**2 + p * sol.yval**2 == (u * u + p * w * w) ** s


def test_find_good_prime_goldens():
    q, base, doubled = find_good_prime(7, 100)
    assert q == 11
    assert (base.xval, base.yval) == (2, 1)
    assert (doubled.xval, doubled.yval) == (4, 2)
    q, base, doubled = find_good_prime(11, 100)
    assert q == 47
    assert (base.xval, base.yval) == (6, 1)
    assert (doubled.xval, doubled.yval) == (12, 2)


def test_find_good_prime_bound():
    with pytest.raises(NoWitnessFound):
        find_good_prime(7, 5)


def test_stickelberger_goldens():
    # p=7, q=2: R=1, distinguished C=-1 since 2(-2)^{-1} ≡ 6 ≡ -1 mod 7
    assert stickelberger_sign(7, 2, 1, 1) == -1
    assert stickelberger_check(7, 2, 1, 1, 1, 8)
    # p=7, q=11: 4*11 = 4^2 + 7*2^2, sign lands on -4
    assert stickelberger_sign(7, 11, 1, 4) == -1
    assert stickelberger_check(7, 11, 1, 4, 2, 44)


def test_stickelberger_check_guards():
    with pytest.raises(NotARepresentation):
        stickelberger_check(7, 2, 1, 3, 1, 8)
    assert not stickelberger_check(7, 2, 1, 7, 21, 7 * 7 + 7 * 21 * 21)


def test_density_estimate_golden():
    est = density_estimate(7, 1000)
    assert est.ratio == Fraction(81, 168)
    assert est.primes == 168
    assert abs(est.ratio_float - 0.5) < 0.03


def test_density_estimate_guard():
    with pytest.raises(BoundTooSmall):
        density_estimate(7, 50)


def test_density_counts_only_represented_primes():
    est = density_estimate(7, 200)
    by_hand = sum(
        1 for q in primerange(2, 201) if cornacchia(7, q) is not None
    )
    assert est.represented == by_hand
