import json
from functools import cache
from pathlib import Path

import pytest
from sympy import primerange

from eigenvanish import (
    CyclotomicSetup,
    NotInSubgroup,
    build_field,
    certify_half_plus,
    multiplicative_order,
    vandiver_scan,
)

_acceptance_lines: dict[int, str] = {}

GOLDEN_CERTIFY_P23 = Path(__file__).parent / "golden" / "certify_p23.json"

# values of the wrong JSON type, each at (path in the certificate, value); the
# first three used to be read as valid ones: 2.9 -> 2, 23.5 -> 23, "false" -> True
WRONG_TYPES = {
    "q-float": (("witnesses", 0, "q"), 2.9),
    "p-float": (("p",), 23.5),
    "qf-string": (("witnesses", 0, "qf_identity_ok"), "false"),
    "qf-int": (("witnesses", 0, "qf_identity_ok"), 1),
    "g-bool": (("g",), True),
    "b-underscored": (("witnesses", 0, "b"), "-1_0"),
    "route-int": (("witnesses", 0, "route"), 0),
    "verdict-list": (("verdict",), ["Trivial"]),
}


def golden_certificate() -> dict:
    """The certificate that `certify --p 23` writes, as pinned in the golden."""
    return json.loads(GOLDEN_CERTIFY_P23.read_text())["result"]["certificate"]


def forged_golden_certificate(case: str) -> dict:
    """golden_certificate() with the value of one WRONG_TYPES case swapped in."""
    data = golden_certificate()
    path, value = WRONG_TYPES[case]
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


def unencodable_certificates(p: int, q: int = 2, modulus: str = "999") -> dict:
    """Two certificate documents for p whose checks must not cost O(p): one
    with no witnesses, and one whose only witness q stores `modulus` (too
    short to encode F_{q^((p-1)/2)} once p is large)."""
    empty = {"p": p, "r": (p + 1) // 2, "verdict": "Inconclusive", "witnesses": [],
             "g": 5, "field_cap": 1 << 27}
    witness = {"q": q, "n": (p - 1) // 2, "v": 0, "h": 1, "d0": "1", "d1": "0",
               "a": "1", "b": "1", "a0_mod_p": p - 1, "a1_mod_p": 0, "i_mod_p": 0,
               "qf_identity_ok": True, "route": "forms+index"}
    one = dict(empty, witnesses=[witness],
               field_choices=[{"q": q, "modulus": modulus, "generator": "2"}])
    return {"no-witnesses": empty, "short-modulus": one}


def trace(ctx, x) -> int:
    """Absolute trace F_{q^n} -> F_q of the coefficient tuple x, linear in the
    coefficient basis: the trace oracle of the period walks."""
    return sum(c * t for c, t in zip(x, ctx.basis_traces)) % ctx.q


def schoolbook_mulmod(a, b, modulus, q):
    """Product of two residues mod the monic x^n + sum modulus[i] x^i, by
    convolution and then long division from the top coefficient down."""
    n = len(modulus)
    res = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % q
    for i in range(len(res) - 1, n - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(n):
                res[i - n + j] = (res[i - n + j] - c * modulus[j]) % q
    return tuple(res[:n])


def schoolbook_powmod(a, exponent, modulus, q):
    """a^exponent by right-to-left binary powering with `schoolbook_mulmod`."""
    result = (1,) + (0,) * (len(modulus) - 1)
    base = tuple(a)
    while exponent:
        if exponent & 1:
            result = schoolbook_mulmod(result, base, modulus, q)
        base = schoolbook_mulmod(base, base, modulus, q)
        exponent >>= 1
    return result


def characteristic_polynomial(x, modulus, q):
    """The n non-leading coefficients of prod_{i<n} (y - x^(q^i)), the
    characteristic polynomial over F_q of the residue x mod the monic degree-n
    `modulus` (x's minimal polynomial when x has degree n), multiplied out
    with the schoolbook product: the oracle of the minimal-polynomial basis
    that the full histogram scans in."""
    n = len(modulus)
    zero, one = (0,) * n, (1,) + (0,) * (n - 1)
    poly = [one]  # coefficients in F_q[x]/(modulus), lowest degree first
    conj = tuple(x)
    for _ in range(n):
        shifted = [zero] + poly
        poly = [
            tuple((u - v) % q for u, v in zip(a, schoolbook_mulmod(conj, b, modulus, q)))
            for a, b in zip(shifted, poly)
        ] + [one]
        conj = schoolbook_powmod(conj, q, modulus, q)
    assert all(not any(c[1:]) for c in poly), "a coefficient outside F_q"
    return tuple(c[0] for c in poly[:-1])


def tuple_dlog(ctx, y, p):
    """The discrete log of y to base zeta by a walk over coefficient tuples
    with the schoolbook product: an oracle that shares no code with
    `dlog_order_p`'s packed walk."""
    z = (1,) + (0,) * (ctx.n - 1)
    for k in range(p):
        if z == y:
            return k
        z = schoolbook_mulmod(z, ctx.zeta, ctx.modulus, ctx.q)
    raise NotInSubgroup("element is not a p-th root of unity")


def grid_setups() -> list[CyclotomicSetup]:
    """The 44 acceptance-grid pairs: p <= 31, q <= 50, q^n <= 2^24."""
    out = []
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        for q in primerange(2, 51):
            q = int(q)
            if q != p and q % p != 1 and q ** multiplicative_order(q, p) <= 1 << 24:
                out.append(CyclotomicSetup.create(p, q))
    return out


@cache
def production_setups() -> tuple[CyclotomicSetup, ...]:
    """The 44 grid setups, every witness field of `certify_half_plus(p)` for
    p = 19, 23, 31, 43, 47, 59, and every witness field of `vandiver_scan(43)`."""
    setups = grid_setups()
    for p in (19, 23, 31, 43, 47, 59):
        cert = certify_half_plus(p)
        setups += [CyclotomicSetup.create(p, q) for q, _, _ in cert.field_choices]
    report = vandiver_scan(43)
    qs = sorted({t[0] for s in report.scans for t in s.tried})
    setups += [CyclotomicSetup.create(43, q) for q in qs]
    return tuple(setups)


def record_acceptance(num: int, ok: bool, detail: str) -> None:
    """Collect one pass/fail line per acceptance criterion; printed in the
    terminal summary so the verdicts survive output capturing."""
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    _acceptance_lines[num] = line
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for num in sorted(_acceptance_lines):
            terminalreporter.write_line(_acceptance_lines[num])


@pytest.fixture(scope="session")
def f8():
    """F_8 for (p, q) = (7, 2): the fully hand-checkable case."""
    setup = CyclotomicSetup.create(7, 2)
    return setup, build_field(setup, cap=1 << 20)


@pytest.fixture(scope="session")
def f27():
    """F_27 for (p, q) = (13, 3): e = 4, two even eigenspaces."""
    setup = CyclotomicSetup.create(13, 3)
    return setup, build_field(setup, cap=1 << 20)


@pytest.fixture(scope="session")
def f243():
    """F_243 for (p, q) = (11, 3): order-5 witness for p = 11."""
    setup = CyclotomicSetup.create(11, 3)
    return setup, build_field(setup, cap=1 << 20)
