import json
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sympy import I, expand, im, jacobi_symbol, primerange, re, sqrt

import eigenvanish
from eigenvanish import (
    BadDiscriminant,
    BadInput,
    BadPrime,
    EvenExponent,
    SearchTooLarge,
    BoundTooSmall,
    class_number,
    cornacchia,
    density_estimate,
    legendre,
    power_representation,
    reduced_forms_count,
    represent_all,
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


def test_reduced_forms_count_guards():
    for disc in (-6, 4):  # -6 ≡ 2 mod 4; 4 is not negative
        with pytest.raises(BadDiscriminant):
            reduced_forms_count(disc)


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


def test_cornacchia_agrees_with_represent_all_on_small_primes():
    # None exactly when no representation exists, and otherwise one of them;
    # N = 2 included: 2 = 1 + 1·1 = 0 + 2·1
    assert cornacchia(2, 2) == (0, 1) and cornacchia(1, 2) == (1, 1)
    for D in range(1, 50):
        for N in primerange(2, 1000):
            got, reps = cornacchia(D, N), represent_all(D, N)
            assert (got in reps) if got is not None else not reps, (D, N)


@pytest.mark.parametrize("N", [25, 65, 85, 145])
def test_cornacchia_composite_n_is_bad_input(N):
    # Tonelli-Shanks never returned on 25, 65 and 145, and 85 raised a bare
    # ValueError, while cornacchia took any N
    with pytest.raises(BadInput):
        cornacchia(1, N)


@pytest.mark.parametrize("D", [0, -3])
def test_cornacchia_nonpositive_d_is_bad_input(D):
    with pytest.raises(BadInput, match="D and N must be positive"):
        cornacchia(D, 7)


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


def test_represent_all_d1_lists_swapped_pairs():
    assert represent_all(1, 461355218) == [(5347, 20803), (20803, 5347)]
    assert represent_all(1, 25) == [(0, 5), (3, 4), (4, 3), (5, 0)]
    assert represent_all(1, 1) == [(0, 1), (1, 0)]
    assert represent_all(4, 1) == [(1, 0)]


def test_represent_all_two_classes():
    # 4*59^3 carries both a primitive and an imprimitive solution for D = 23
    reps = represent_all(23, 4 * 59**3)
    assert reps == [(396, 170), (708, 118)]


@settings(max_examples=300, deadline=None)
@given(
    D=st.sampled_from([1, 2, 4, 7, 9, 11, 18, 23, 25, 31, 343]),
    k=st.integers(0, 4000),
    times_d=st.booleans(),
)
def test_represent_all_methods_agree(D, k, times_d):
    # D = 1 has the swapped pairs, odd D the roots mod 2^e, and the
    # square-full D and the multiples N of D the primes dividing D and N
    N = D * k if times_d else k
    want = exhaustive_reps(D, N)
    assert represent_all(D, N, method="exhaustive") == want
    assert represent_all(D, N, method="factor") == want


@pytest.mark.parametrize(
    "D,N", [(1000003, 1000003 * k * k) for k in (1, 2, 3, 7, 11)] + [(1000003**2, 2 * 1000003**2)]
)
def test_represent_all_large_prime_d_dividing_n(D, N):
    # a prime ell | D leaves only x ≡ 0 mod ell, and ell^2 | D, N is divided
    # out, so neither walks the residues mod 1000003 nor lists 1000003 roots
    assert represent_all(D, N) == exhaustive_reps(D, N)


def test_represent_all_loads_no_sympy():
    # 1234567^2 + 7*891011^2, far above the size where a brute scan would do
    code = (
        "import json, sys\n"
        "from eigenvanish import represent_all\n"
        "reps = represent_all(7, 7081459892336)\n"
        "print(json.dumps({'reps': len(reps), 'sympy': 'sympy' in sys.modules}))\n"
    )
    root = Path(eigenvanish.__file__).parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=root
    ).stdout
    assert json.loads(out.splitlines()[-1]) == {"reps": 6, "sympy": False}


@pytest.mark.parametrize("D, N, method, message", [
    (0, 8, "factor", "need D > 0"),
    (-7, 8, "exhaustive", "need D > 0"),
    (7, -1, "factor", "N >= 0"),
    (7, 8, "auto", "unknown method 'auto'"),
    (7, 8, "sympy", "unknown method 'sympy'"),
])
def test_represent_all_bad_input(D, N, method, message):
    with pytest.raises(BadInput, match=message):
        represent_all(D, N, method=method)


def test_represent_all_search_limit():
    with pytest.raises(SearchTooLarge):
        represent_all(7, (1 << 44) + 2, method="exhaustive")


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


def test_stickelberger_goldens():
    # p=7, q=2: R=1, distinguished C=-1 since 2(-2)^{-1} ≡ 6 ≡ -1 mod 7
    assert stickelberger_sign(7, 2, 1, 1) == -1
    # p=7, q=11: 4*11 = 4^2 + 7*2^2, sign lands on -4
    assert stickelberger_sign(7, 11, 1, 4) == -1
    # p | C meets the congruence with neither sign
    assert stickelberger_sign(7, 2, 1, 7) is None


def test_density_estimate_golden():
    est = density_estimate(7, 1000)
    assert est.ratio == Fraction(81, 168)
    assert est.primes == 168
    assert abs(est.ratio_float - 0.5) < 0.03


def test_density_estimate_guard():
    with pytest.raises(BoundTooSmall):
        density_estimate(7, 50)
    # D = 0 divided by zero in the descent, and D = -7 took isqrt of a negative
    for D in (0, -7):
        with pytest.raises(BadInput):
            density_estimate(D, 1000)


def test_density_counts_only_represented_primes():
    est = density_estimate(7, 200)
    by_hand = sum(
        1 for q in primerange(2, 201) if cornacchia(7, q) is not None
    )
    assert est.represented == by_hand
