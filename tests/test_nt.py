"""The private `_nt` module against sympy as the oracle, and the light import
path it buys: the CLI loads neither sympy nor numpy unless a case needs them."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sympy import cyclotomic_poly, factorint, isprime, primerange

import eigenvanish
from eigenvanish import (
    CyclotomicSetup,
    InternalInvariant,
    NotCoprime,
    build_field,
    certificate_from_dict,
    certificate_to_dict,
    certify_half_plus,
    least_primitive_root,
    multiplicative_order,
    vandiver_scan,
    verify_certificate,
)
from eigenvanish import _nt, ffield
from eigenvanish.errors import FactorizationFailure
from eigenvanish.ffield import _group_order_primes

CARMICHAEL = (561, 41041)
# strong pseudoprimes to the first 4, 9, 12 and 13 prime bases
STRONG_PSEUDOPRIMES = (
    3215031751,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
PRIMES_NEAR_10_6 = (999953, 999959, 999961, 999979, 999983, 1000003, 1000033, 1000037)


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the calls that reach sympy through `_nt`'s lazy fallbacks."""
    calls = {"isprime": 0, "factorint": 0}
    real_isprime, real_factorint = _nt._sympy_isprime, _nt._sympy_factorint

    def counted_isprime(n):
        calls["isprime"] += 1
        return real_isprime(n)

    def counted_factorint(n):
        calls["factorint"] += 1
        return real_factorint(n)

    monkeypatch.setattr(_nt, "_sympy_isprime", counted_isprime)
    monkeypatch.setattr(_nt, "_sympy_factorint", counted_factorint)
    return calls


# ---------------------------------------------------------------------------
# is_prime


def test_is_prime_matches_sympy_below_20000():
    assert [n for n in range(-10, 20_000) if _nt.is_prime(n)] == list(primerange(2, 20_000))


@pytest.mark.parametrize("n", CARMICHAEL + STRONG_PSEUDOPRIMES)
def test_is_prime_rejects_pseudoprimes(n):
    assert not isprime(n)
    assert not _nt.is_prime(n)


def test_is_prime_asks_sympy_only_from_the_bound(fallbacks):
    # psi_12 lies below the bound, so base 41 must catch it without sympy
    assert not _nt.is_prime(318665857834031151167461)
    assert _nt.is_prime(_nt._MR_EXACT_BELOW - 2) == isprime(_nt._MR_EXACT_BELOW - 2)
    assert fallbacks["isprime"] == 0
    # psi_13 is the bound itself: strong to all 13 bases, so sympy decides
    assert not _nt.is_prime(_nt._MR_EXACT_BELOW)
    assert fallbacks["isprime"] == 1


@settings(max_examples=400, deadline=None)
@given(n=st.one_of(st.integers(-5, 10**7), st.integers(10**7, 10**25)))
def test_is_prime_matches_sympy(n):
    assert _nt.is_prime(n) == isprime(n)


# ---------------------------------------------------------------------------
# factor


def test_factor_matches_sympy_below_5000():
    for n in range(1, 5000):
        assert _nt.factor(n) == factorint(n), n


def test_factor_refuses_n_below_1():
    for n in (0, -12):
        with pytest.raises(ValueError, match=f"cannot factor {n}"):
            _nt.factor(n)


# 34315188682441 = 59 * 28537 * 20381027 is the largest number the certify and
# vandiver primes factor. 4 * 9973^7, a target of represent_all, leaves a
# composite cofactor above the Miller-Rabin bound: base 2 proves it
# composite, so sympy is never asked
@pytest.mark.parametrize("n", [34315188682441, 2**64 - 1, 10**18 + 9, 7**40, 4 * 9973**7])
def test_factor_fixed_edges(n, fallbacks):
    assert _nt.factor(n) == factorint(n)
    assert fallbacks == {"isprime": 0, "factorint": 0}


@settings(max_examples=150, deadline=None)
@given(
    prime=st.sampled_from([2, 3, 1021, 1031, 65537] + list(PRIMES_NEAR_10_6)),
    k=st.integers(1, 9),
)
def test_factor_prime_powers(prime, k):
    assert _nt.factor(prime**k) == {prime: k}


def test_factor_products_of_two_primes_near_10_6(fallbacks):
    for i, a in enumerate(PRIMES_NEAR_10_6):
        for b in PRIMES_NEAR_10_6[i:]:
            for cofactor in (1, 2, 1021 * 1031, 2 * 3 * 5 * 7 * 11 * 13):
                n = a * b * cofactor
                assert _nt.factor(n) == factorint(n), n
    assert fallbacks == {"isprime": 0, "factorint": 0}


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 10**16))
def test_factor_matches_sympy(n):
    assert _nt.factor(n) == factorint(n)


PRIMES_NEAR_2_20 = tuple(primerange((1 << 20) - 120, (1 << 20) + 120))


def test_rho_splits_products_of_two_primes_near_2_20():
    # factor hands rho the cofactors left after trial division; in certify
    # they are about 40 bits, two primes near 2^20
    assert len(PRIMES_NEAR_2_20) >= 10
    for i, a in enumerate(PRIMES_NEAR_2_20):
        for b in PRIMES_NEAR_2_20[i + 1:]:
            d = _nt._rho(a * b)
            assert d in (a, b), (a, b, d)


def test_rho_returns_none_when_the_budget_runs_out(monkeypatch):
    monkeypatch.setattr(_nt, "_RHO_BUDGET", 4)
    assert _nt._rho(999983 * 1000003) is None


def test_factor_hands_an_unsplit_cofactor_to_sympy(monkeypatch, fallbacks):
    monkeypatch.setattr(_nt, "_RHO_BUDGET", 4)
    n = 12 * 999983 * 1000003
    assert _nt.factor(n) == {2: 2, 3: 1, 999983: 1, 1000003: 1}
    assert fallbacks["factorint"] == 1


# ---------------------------------------------------------------------------
# the sieve and the cyclotomic values


@pytest.mark.parametrize("limit", [1, 2, 3, 1023, 1024, 1025, 100_000])
def test_prime_sieve_matches_primerange(limit):
    # 1024 = 2^10 is the limit that lists factor's trial primes
    sieve = _nt.prime_sieve(limit)
    assert len(sieve) == limit + 1
    assert [k for k, bit in enumerate(sieve) if bit] == list(primerange(2, limit + 1))


def test_trial_primes_are_the_primes_below_2_10():
    assert _nt._TRIAL == tuple(primerange(2, 1 << 10))


def test_cyclotomic_value_matches_sympy():
    for d in range(1, 61):
        poly = cyclotomic_poly(d, polys=True)
        for q in range(2, 51):
            assert _nt.cyclotomic_value(d, q) == poly.eval(q), (d, q)


def test_group_order_refusal_is_unchanged():
    # Phi_271(2) = 2^271 - 1 is composite with 82 digits
    with pytest.raises(FactorizationFailure) as err:
        _group_order_primes(2, 271)
    assert str(err.value) == (
        "cofactor of q^n - 1 too large to certify primitivity (82 digits)"
    )


def test_group_order_refuses_a_piece_past_the_str_limit(monkeypatch):
    # Phi_31138(2) = (2^15569 + 1)/3 has 4,687 digits, past CPython's 4,300
    # for str(int); the refusal counts them without str. The Miller-Rabin
    # pass on the piece, seconds long, is replaced by its verdict
    monkeypatch.setattr(ffield, "is_prime", lambda n: n < 10**80 and isprime(n))
    with pytest.raises(FactorizationFailure) as err:
        _group_order_primes(2, 31138)
    assert str(err.value) == (
        "cofactor of q^n - 1 too large to certify primitivity (4687 digits)"
    )


@pytest.mark.parametrize("p, digits", [(163, 88), (223, 93)])
def test_certify_refuses_an_oversized_piece_first(p, digits):
    # Phi_81(41) and Phi_111(19): every piece's size is checked before the
    # modulus search and before any piece is factored (a 44-digit cofactor
    # of Phi_37(19) for p = 223), so the refusal costs no search or factoring
    start = time.process_time()
    with pytest.raises(FactorizationFailure) as err:
        certify_half_plus(p)
    assert time.process_time() - start < 0.5
    assert str(err.value) == (
        f"cofactor of q^n - 1 too large to certify primitivity ({digits} digits)"
    )


# ---------------------------------------------------------------------------
# least_primitive_root: p - 1 factored once, same choice and same errors


def _least_root_by_order(p):
    """The search by multiplicative order that the production code replaced."""
    for g in range(2, p):
        if multiplicative_order(g, p) == p - 1:
            return g
    raise InternalInvariant(f"no primitive root mod {p}")


def test_least_primitive_root_matches_the_order_search():
    for p in range(-3, 600):
        try:
            expected = _least_root_by_order(p)
        except (InternalInvariant, NotCoprime) as err:
            with pytest.raises(type(err)) as got:
                least_primitive_root(p)
            assert str(got.value) == str(err), p
        else:
            assert least_primitive_root(p) == expected, p


# ---------------------------------------------------------------------------
# the light import path


def test_cli_import_and_setup_load_neither_sympy_nor_numpy():
    # nor dataclasses, nor inspect, which it imports
    code = (
        "import json, sys\n"
        "heavy = ('dataclasses', 'inspect', 'numpy', 'sympy')\n"
        "import eigenvanish.cli\n"
        "after_import = sorted(m for m in heavy if m in sys.modules)\n"
        "code = eigenvanish.cli.main(['setup', '--p', '7', '--q', '2', '--json'])\n"
        "after_main = sorted(m for m in heavy if m in sys.modules)\n"
        "print(json.dumps({'import': after_import, 'main': after_main, 'code': code}))\n"
    )
    # run from the directory that holds the imported package, so that the
    # child finds it with neither PYTHONPATH nor an install
    root = Path(eigenvanish.__file__).parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=root
    ).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert loaded == {"import": [], "main": [], "code": 0}


def _fresh(code: str):
    """Run `code` in a fresh interpreter from the directory that holds the
    imported package; returns the JSON of its last stdout line."""
    root = Path(eigenvanish.__file__).parents[1]
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        capture_output=True, text=True, check=True, cwd=root,
    ).stdout
    return json.loads(out.splitlines()[-1])


def _run_cli(*argv: str) -> str:
    """Code for `_fresh` that runs the CLI on argv with stdout muted, then
    prints the exit code and the package modules loaded."""
    return (
        "import contextlib, io\n"
        "from eigenvanish.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({list(argv)!r})\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'eigenvanish')\n"
        "print(json.dumps({'code': code, 'loaded': loaded, "
        "'fractions': 'fractions' in sys.modules}))\n"
    )


def test_import_eigenvanish_loads_no_submodule():
    loaded = _fresh(
        "import eigenvanish\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('eigenvanish'))))\n"
    )
    assert loaded == ["eigenvanish"]


def test_setup_loads_only_the_field_layer():
    got = _fresh(_run_cli("setup", "--p", "7", "--q", "2", "--json"))
    assert got == {
        "code": 0,
        "loaded": ["eigenvanish", "eigenvanish._nt", "eigenvanish.cli",
                   "eigenvanish.errors", "eigenvanish.ffield"],
        "fractions": False,
    }


def test_periods_loads_neither_certify_nor_quadforms_nor_units():
    got = _fresh(_run_cli("periods", "--p", "19", "--q", "5", "--json"))
    assert got["code"] == 0
    assert "eigenvanish.periods" in got["loaded"]
    assert not {"eigenvanish.certify", "eigenvanish.quadforms", "eigenvanish.units"} & set(
        got["loaded"]
    )


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "2"}], ids=["unset", "preset"])
def test_cli_runs_blas_on_one_thread_unless_told_otherwise(preset):
    # the (47, 2) scan loads numpy; a thread count the user set is kept
    got = _fresh(
        "import os\n"
        f"for var in {_BLAS_THREADS!r}:\n"
        "    os.environ.pop(var, None)\n"
        f"os.environ.update({preset!r})\n"
        + _run_cli("periods", "--p", "47", "--q", "2", "--json")
        + f"print(json.dumps([{{v: os.environ.get(v) for v in {_BLAS_THREADS!r}}}, "
        "'numpy' in sys.modules]))\n"
    )
    assert got == [{var: preset.get(var, "1") for var in _BLAS_THREADS}, True]


def test_even_n_period_table_loads_no_numpy():
    # F_{5^4} for p = 13 takes the closed form; F_{3^3} for p = 13 scans
    got = _fresh(
        "from eigenvanish import CyclotomicSetup, build_field, compute_period_table\n"
        "loaded = []\n"
        "for q in (5, 3):\n"
        "    setup = CyclotomicSetup.create(13, q)\n"
        "    compute_period_table(build_field(setup), setup)\n"
        "    loaded.append([setup.n, 'numpy' in sys.modules])\n"
        "print(json.dumps(loaded))\n"
    )
    assert got == [[4, False], [3, True]]


def test_lazy_exports_resolve_to_their_defining_objects():
    got = _fresh(
        "import importlib\n"
        "import eigenvanish\n"
        "certify_first = eigenvanish.certify.__name__\n"  # before any explicit import
        "same = []\n"
        "for name in eigenvanish.__all__:\n"
        "    obj = getattr(eigenvanish, name)\n"
        "    home = importlib.import_module(obj.__module__)\n"
        "    if home.__name__.startswith('eigenvanish.') and getattr(home, name) is obj:\n"
        "        same.append(name)\n"
        "try:\n"
        "    eigenvanish.no_such_name\n"
        "    unknown = None\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "star = {}\n"
        "exec('from eigenvanish import *', star)\n"
        "print(json.dumps({'certify': certify_first, 'all': eigenvanish.__all__, 'same': same,\n"
        "                  'unknown': unknown, 'star': sorted(set(star) - {'__builtins__'}),\n"
        "                  'dir': set(eigenvanish.__all__) <= set(dir(eigenvanish))}))\n"
    )
    assert got["certify"] == "eigenvanish.certify"
    assert len(got["all"]) == 59
    assert got["same"] == got["all"] == sorted(got["star"])
    assert got["unknown"] == "module 'eigenvanish' has no attribute 'no_such_name'"
    assert got["dir"]


@pytest.mark.parametrize("p", (19, 23, 31, 43, 47, 59))
def test_certify_never_falls_back_to_sympy(p, fallbacks):
    cert = certify_half_plus(p)
    back = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
    assert verify_certificate(back)
    assert fallbacks == {"isprime": 0, "factorint": 0}


@pytest.mark.parametrize("p", (41, 43, 47, 53, 59, 61))
def test_vandiver_never_falls_back_to_sympy(p, fallbacks):
    vandiver_scan(p)
    assert fallbacks == {"isprime": 0, "factorint": 0}


def test_grid_fields_never_fall_back_to_sympy(fallbacks):
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        for q in primerange(2, 51):
            if q != p and q % p != 1:
                setup = CyclotomicSetup.create(p, int(q))
                if setup.field_size() <= 1 << 24:
                    build_field(setup)
    assert fallbacks == {"isprime": 0, "factorint": 0}
