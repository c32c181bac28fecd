import dataclasses
import json
import time
from functools import partial
from itertools import islice
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    WRONG_TYPES,
    forged_golden_certificate,
    golden_certificate,
    schoolbook_powmod,
    unencodable_certificates,
)
from sympy import divisors, factorint, isprime, n_order, nextprime, primerange
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_pow_mod
from sympy.ntheory import is_primitive_root

from eigenvanish import (
    BadEigenspaceIndex,
    BadInput,
    BadPrime,
    BoundExhausted,
    Certificate,
    CyclotomicSetup,
    WitnessRecord,
    build_field,
    certificate_from_dict,
    certificate_to_dict,
    certify,
    certify_half_plus,
    check_certificate,
    class_number,
    multiplicative_order,
    remark_explore,
    represent_all,
    vandiver_scan,
    verify_certificate,
)
from eigenvanish.certify import (
    DEFAULT_FIELD_CAP,
    DEFAULT_QBOUND,
    ROUTE_ANALYTIC,
    ROUTE_FULL,
    EigenspaceScan,
    VandiverReport,
    _primes_of_order,
    _witness_fields,
    _witness_record,
)
from eigenvanish.ffield import field_from_choice
from eigenvanish.units import index_vector


def test_primes_of_order_goldens():
    assert list(islice(_primes_of_order(7, 3, 100), 3)) == [2, 11, 23]
    assert list(islice(_primes_of_order(11, 5, 100), 3)) == [3, 5, 31]


def _prime_orders(p: int, qbound: int) -> list[tuple[int, int]]:
    """(q, ord_p(q)) for each prime q <= qbound but p, by sympy's n_order: the
    oracle for the witness primes that `_primes_of_order` finds by residue class."""
    return [(q, n_order(q, p)) for q in primerange(2, qbound + 1) if q != p]


@pytest.mark.parametrize("p", [7, 23, 43, 61])
def test_prime_orders_match_multiplicative_order(p):
    expected = [(q, multiplicative_order(q, p)) for q in primerange(2, 10_001) if q != p]
    assert list(_prime_orders(p, 10_000)) == expected


@pytest.mark.parametrize("qbound", [2, 3, 50, 401, 1000, 10_000])
def test_witness_primes_match_the_order_oracle(qbound):
    # every prime p <= 300, every order n >= 2 dividing p - 1, and field caps
    # from below any field to past every q^n with n < 41; for p > 200 the
    # prime qbound = 401 is the second and last term a + p of its class
    for p in primerange(2, 301):
        orders = _prime_orders(p, qbound)
        for n in divisors(p - 1)[1:]:
            want = [q for q, order in orders if order == n]
            assert list(_primes_of_order(p, n, qbound)) == want, (p, n)
        fields = sorted((q**n, q, n) for q, n in orders if n >= 2)
        for cap in (1, 8, 100, 1 << 20, 1 << 27, 1 << 40):
            want = [field for field in fields if field[0] <= cap]
            assert list(_witness_fields(p, qbound, cap)) == want, (p, cap)
            for k in (1, 5):
                assert list(islice(_witness_fields(p, qbound, cap), k)) == want[:k], (p, cap, k)


# frozen witness data for the smallest certifying prime q per p
CERTIFY_GOLDENS = {
    7: dict(q=2, n=3, v=1, h=1, d=(1, 0), a=1, b=1, i=1, route=ROUTE_FULL),
    11: dict(q=3, n=5, v=2, h=1, d=(0, -1), a=-1, b=1, i=10, route=ROUTE_FULL),
    19: dict(q=5, n=9, v=4, h=1, d=(-1, 0), a=-1, b=-1, i=1, route=ROUTE_FULL),
    23: dict(q=2, n=11, v=4, h=3, d=(1, 2), a=3, b=-1, i=15, route=ROUTE_FULL),
    31: dict(q=7, n=15, v=6, h=3, d=(11, 5), a=16, b=6, i=12, route=ROUTE_ANALYTIC),
    43: dict(q=13, n=21, v=10, h=1, d=(1, 2), a=3, b=-1, i=14, route=ROUTE_ANALYTIC),
}


@pytest.mark.parametrize("p", sorted(CERTIFY_GOLDENS))
def test_certify_goldens(p):
    want = CERTIFY_GOLDENS[p]
    cert = certify_half_plus(p)
    assert cert.verdict == "Trivial"
    w = cert.witnesses[-1]
    assert w.q == want["q"]
    assert (w.n, w.v, w.h) == (want["n"], want["v"], want["h"])
    assert (w.d0, w.d1) == want["d"]
    assert (w.a, w.b) == (want["a"], want["b"])
    assert w.i_mod_p == want["i"]
    assert w.route == want["route"]
    assert w.qf_identity_ok
    assert verify_certificate(cert)


def test_certify_witness_consistency():
    cert = certify_half_plus(23)
    p = cert.p
    for w in cert.witnesses:
        assert 4 * w.q**w.h == w.a * w.a + p * w.b * w.b
        assert (w.a, w.b) == (w.d0 + w.d1, w.d0 - w.d1)
        assert w.a0_mod_p == (p - 1)
        assert w.i_mod_p == w.a0_mod_p * w.a1_mod_p % p
        # the three triviality tests agree on every witness
        assert (w.i_mod_p == 0) == (w.a1_mod_p == 0) == (w.b % p == 0)


def test_certify_rejects_wrong_residue():
    with pytest.raises(BadPrime):
        certify_half_plus(13)  # 13 ≡ 1 mod 4
    with pytest.raises(BadPrime):
        certify_half_plus(3)
    with pytest.raises(BadPrime):
        certify_half_plus(15)  # composite, 15 ≡ 3 mod 4


def test_certificate_roundtrip():
    cert = certify_half_plus(11)
    data = certificate_to_dict(cert)
    back = certificate_from_dict(data)
    assert back == cert
    assert verify_certificate(back)


def test_certificate_dict_uses_decimal_strings():
    cert = certify_half_plus(7)
    data = certificate_to_dict(cert)
    w = data["witnesses"][0]
    for key in ("d0", "d1", "a", "b"):
        assert isinstance(w[key], str)
        int(w[key])


def test_certificate_from_dict_rejects_garbage():
    with pytest.raises(BadInput):
        certificate_from_dict({"p": 7})
    cert = certify_half_plus(7)
    data = certificate_to_dict(cert)
    data["witnesses"][0]["a"] = "not-a-number"
    with pytest.raises(BadInput):
        certificate_from_dict(data)


def test_golden_certificate_reads_back():
    data = golden_certificate()
    assert check_certificate(certificate_from_dict(data)) == []
    data["witnesses"][0]["q"] = "2"  # a decimal string is as good as a JSON int
    assert check_certificate(certificate_from_dict(data)) == []


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_certificate_from_dict_rejects_wrong_types(case):
    with pytest.raises(BadInput):
        certificate_from_dict(forged_golden_certificate(case))


def test_witness_counts_below_one_are_bad_input():
    for count in (0, -1):
        with pytest.raises(BadInput):
            certify_half_plus(7, max_witnesses=count)
        with pytest.raises(BadInput):
            vandiver_scan(7, max_witnesses_per_r=count)
    assert len(certify_half_plus(23, max_witnesses=1).witnesses) == 1


@pytest.mark.parametrize("run", [
    partial(certify_half_plus, 23),
    partial(certify_half_plus, 23, qbound=1),
    partial(certify_half_plus, 23, field_cap=1),
    partial(vandiver_scan, 23),
    partial(vandiver_scan, 23, qbound=1),
    partial(vandiver_scan, 23, field_cap=1),
    partial(remark_explore, 13, "e4"),
    partial(remark_explore, 13, "e4", qbound=1),
    partial(remark_explore, 13, "e4", field_cap=1),
], ids=lambda run: f"{run.func.__name__}-{run.keywords or 'default'}")
def test_non_primitive_g_is_bad_input_for_any_bounds(run):
    # 4 has order 11 mod 23 and order 6 mod 13; g is checked before any
    # witness search, so bounds that admit no witness change nothing
    with pytest.raises(BadInput, match="g=4 is not a primitive root"):
        run(g=4)


@pytest.mark.parametrize("run, message", [
    (partial(certify_half_plus, 7, qbound=1), "no primes of order 3 mod 7 below 1"),
    (partial(remark_explore, 13, "e4", field_cap=1),
     "no prime of order 3 mod 13 with field under 1 below 10000"),
], ids=["certify-qbound-1", "explore-cap-1"])
def test_bounds_that_admit_no_witness_raise_bound_exhausted(run, message):
    with pytest.raises(BoundExhausted) as err:
        run()
    assert str(err.value) == message


@pytest.mark.parametrize("run, p", [
    (partial(certify_half_plus, 23), 23),
    (partial(certify_half_plus, 23, qbound=1), 23),
    (partial(vandiver_scan, 23), 23),
    (partial(vandiver_scan, 23, field_cap=1), 23),
    (partial(remark_explore, 13, "e4"), 13),
    (partial(remark_explore, 13, "e4", field_cap=1), 13),
], ids=lambda x: str(x) if isinstance(x, int) else f"{x.func.__name__}-{x.keywords or 'default'}")
def test_g_divisible_by_p_is_bad_input(run, p):
    # g ≡ 0 mod p has no order mod p; it is refused as any other g that is no
    # primitive root, not as a gcd failure
    for g in (p, 0, 3 * p, -p):
        with pytest.raises(BadInput, match=f"g={g} is not a primitive root mod {p}$"):
            run(g=g)
    with pytest.raises(BadInput, match=f"g={p} is not a primitive root mod {p}$"):
        CyclotomicSetup.create(p, 2, g=p)


def test_verify_rejects_tampering():
    cert = certify_half_plus(7)
    assert check_certificate(cert) == []
    w = cert.witnesses[-1]
    bad = dataclasses.replace(cert, witnesses=(dataclasses.replace(w, b=w.b + 7),))
    assert not verify_certificate(bad)
    bad = dataclasses.replace(cert, witnesses=(dataclasses.replace(w, i_mod_p=0),))
    assert not verify_certificate(bad)
    bad = dataclasses.replace(cert, p=13)
    assert not verify_certificate(bad)
    bad = dataclasses.replace(cert, r=3)
    assert not verify_certificate(bad)


def test_verify_rejects_empty_trivial():
    cert = certify_half_plus(7)
    bad = dataclasses.replace(cert, witnesses=(), field_choices=())
    assert not verify_certificate(bad)
    problems = check_certificate(bad)
    assert problems


def _timed_problems(data):
    start = time.process_time()
    problems = check_certificate(certificate_from_dict(data))
    return problems, time.process_time() - start


# p - 1 = 2 * P1 * P2 with P1 ≈ 10^27 and P2 ≈ 7 * 10^30 prime: factoring it
# runs past rho's budget into sympy for far longer than a second
P59 = 14000000000000000000000173324954000000000000000000234631567


@pytest.mark.parametrize("p, kind, modulus", [
    pytest.param(1_000_000_007, "no-witnesses", "999", id="no-witnesses"),
    pytest.param(1_000_000_007, "short-modulus", "999", id="short-modulus"),
    pytest.param(P59, "no-witnesses", "999", id="p59-no-witnesses"),
    pytest.param(P59, "short-modulus", "7", id="p59-short-modulus"),
])
def test_verify_cost_is_bounded_by_the_document(p, kind, modulus):
    # p = 10^9 + 7: h(-p) alone would take minutes. 2 has order (p-1)/2 mod
    # 10^9 + 7 and 2^((p-1)/2) ≡ 1 mod P59, so the short modulus is the first
    # thing the witness fails on; the orders of 2 and g, which factor p - 1,
    # are never taken
    problems, cpu = _timed_problems(unencodable_certificates(p, modulus=modulus)[kind])
    want = "no witnesses" if kind == "no-witnesses" else "does not encode a monic"
    assert any(want in msg for msg in problems), problems
    assert cpu < 1.0


@st.composite
def _primes_3_mod_4(draw):
    p = nextprime(draw(st.integers(6, 10**12)))
    while p % 4 != 3:
        p = nextprime(p)
    return int(p)


@settings(max_examples=30, deadline=None)
@given(p=_primes_3_mod_4(), kind=st.sampled_from(["no-witnesses", "short-modulus"]))
def test_verify_cost_on_large_p(p, kind):
    q = next(_primes_of_order(p, (p - 1) // 2, 1000), None)
    problems, cpu = _timed_problems(unencodable_certificates(p, q or 2, modulus="7")[kind])
    if kind == "no-witnesses":
        assert "the certificate has no witnesses" in problems
    elif q is not None:  # 7 is too short for any degree (p-1)/2 >= 3
        assert any("does not encode a monic" in msg for msg in problems), problems
    assert problems
    assert cpu < 1.0


def test_verify_rejects_wrong_verdict():
    cert = certify_half_plus(7)
    bad = dataclasses.replace(cert, verdict="Inconclusive")
    assert not verify_certificate(bad)
    _problems_mention(dataclasses.replace(cert, verdict="Maybe"), "unknown verdict 'Maybe'")


@pytest.fixture(scope="module")
def cert7():
    return certify_half_plus(7)


@pytest.fixture(scope="module")
def cert11():
    return certify_half_plus(11)


def _with_witness(cert, **changes):
    return dataclasses.replace(
        cert, witnesses=(dataclasses.replace(cert.witnesses[-1], **changes),)
    )


def _problems_mention(cert, text):
    problems = check_certificate(cert)
    assert not verify_certificate(cert)
    assert any(text in msg for msg in problems), problems


def test_verify_rejects_forgery_a(cert7):
    # h(-7) = 1 and v = 1; the forged record satisfies n - 2v = h and
    # 4*2^3 = 2^2 + 7*2^2 with a made-up modulus
    forged = dataclasses.replace(
        _with_witness(cert7, q=2, n=3, v=0, h=3, a=2, b=2, d0=2, d1=0,
                      a0_mod_p=6, a1_mod_p=6, i_mod_p=1),
        field_choices=((2, 999, 2),),
    )
    _problems_mention(forged, "h=3 but h(-7) = 1")


def test_verify_rejects_forgery_b_composite_q(cert7):
    # 4 has order 3 mod 7 and 4*4 = (-3)^2 + 7*1^2, but 4 is not prime
    forged = dataclasses.replace(
        _with_witness(cert7, q=4, n=3, v=1, h=1, a=-3, b=1, d0=-1, d1=-2,
                      a0_mod_p=6, a1_mod_p=5, i_mod_p=2),
        field_choices=((4, 11, 2),),
    )
    _problems_mention(forged, "q is not prime")


def test_verify_rejects_non_primitive_g(cert7):
    for g in (1, 2, 4, 6):
        _problems_mention(dataclasses.replace(cert7, g=g), "not a primitive root")


def test_verify_rejects_wrong_v(cert7):
    _problems_mention(_with_witness(cert7, v=0), "recomputed v = 1")


def test_verify_rejects_wrong_route(cert7):
    _problems_mention(_with_witness(cert7, route=ROUTE_ANALYTIC), "route")
    _problems_mention(_with_witness(cert7, route="unknown"), "route")
    _problems_mention(dataclasses.replace(cert7, field_cap=7), "route")


def test_verify_checks_field_choice_order(cert7):
    setup = CyclotomicSetup.create(7, 11)
    ctx = build_field(setup)
    other = _witness_record(setup, ctx, class_number(7), cert7.field_cap)
    other_choice = (11, ctx.modulus_int, ctx.encode(ctx.alpha))
    two = dataclasses.replace(
        cert7,
        witnesses=(other,) + cert7.witnesses,
        field_choices=(other_choice,) + cert7.field_choices,
    )
    assert check_certificate(two) == []
    swapped = dataclasses.replace(two, field_choices=two.field_choices[::-1])
    _problems_mention(swapped, "field_choices")
    _problems_mention(dataclasses.replace(cert7, field_choices=()), "field_choices")
    q, m, a = cert7.field_choices[0]
    _problems_mention(dataclasses.replace(cert7, field_choices=((3, m, a),)), "field_choices")


def _with_field(cert, modulus=None, generator=None):
    q, m, a = cert.field_choices[-1]
    choice = (q, m if modulus is None else modulus, a if generator is None else generator)
    return dataclasses.replace(cert, field_choices=cert.field_choices[:-1] + (choice,))


def test_verify_checks_the_stored_modulus(cert7):
    # F_8 = F_2[x]/(x^3 + x + 1), encoded 11; 999 is no degree-3 monic encoding
    assert cert7.field_choices == ((2, 11, 2),)
    _problems_mention(_with_field(cert7, modulus=999), "does not encode a monic")
    _problems_mention(_with_field(cert7, modulus=7), "does not encode a monic")
    for reducible in (8, 9, 15):  # x^3, (x + 1)(x^2 + x + 1), (x + 1)^3
        _problems_mention(_with_field(cert7, modulus=reducible), "reducible")


def test_verify_checks_the_stored_generator(cert7, cert11):
    for bad in (0, 8, 9, -1):
        _problems_mention(_with_field(cert7, generator=bad), "nonzero element")
    _problems_mention(_with_field(cert7, generator=1), "not a primitive element")
    # cert11 is in F_243: the group order 242 = 2 * 11^2
    setup = CyclotomicSetup.create(11, 3)
    ctx = build_field(setup)
    assert cert11.field_choices[-1][1:] == (ctx.modulus_int, ctx.encode(ctx.alpha))
    square = ctx.encode(schoolbook_powmod(ctx.alpha, 2, ctx.modulus, 3))
    _problems_mention(_with_field(cert11, generator=square), "not a primitive element")
    # alpha^7 is primitive too; zeta becomes zeta^7, and i_r scales by
    # 7^(r-1) = 7^5 ≡ -1 mod 11 (for alpha^3, a Frobenius conjugate, 3^5 ≡ 1)
    other = ctx.encode(schoolbook_powmod(ctx.alpha, 7, ctx.modulus, 3))
    _problems_mention(_with_field(cert11, generator=other), "the stored field gives i = 1")


def test_verify_rejects_a_generator_by_either_kind_of_prime(cert11):
    # F_243 = F_3[x]/(x^5 + 2x + 1), alpha = x: of the primes of 242 = 2 * 11^2,
    # 2 divides q - 1 and is tested on the norm in F_3, 11 by a field power
    ctx = build_field(CyclotomicSetup.create(11, 3))
    assert (ctx.modulus, ctx.alpha) == ((1, 2, 0, 0, 0), (0, 1, 0, 0, 0))
    power = partial(schoolbook_powmod, ctx.alpha, modulus=ctx.modulus, q=3)
    rejected_by = {
        (0, 2, 0, 0, 0): [2],  # 2x, linear: Nm = (-2)^5·F(0) = 1 is a square
        power(6): [2],  # x^2 + 2x, non-linear, of order 121
        power(11): [11],  # x^3 + x^2 + x, of order 22
    }
    assert power(6) == (0, 2, 1, 0, 0) and power(11) == (0, 1, 1, 1, 0)
    one = (1, 0, 0, 0, 0)
    for x, ells in rejected_by.items():
        fixed = [ell for ell in (2, 11) if schoolbook_powmod(x, 242 // ell, ctx.modulus, 3) == one]
        assert fixed == ells
        _problems_mention(_with_field(cert11, generator=ctx.encode(x)), "not a primitive element")


def test_verify_recomputes_i_in_the_stored_field(cert7):
    # i = 2 with a1 forged to keep i ≡ a0 * a1; the stored field still gives i = 1
    forged = _with_witness(cert7, i_mod_p=2, a1_mod_p=5, b=5, a=1, d0=3, d1=-2)
    _problems_mention(forged, "the stored field gives i = 1")


def test_verify_reports_recomputation_errors(cert7):
    # g = p and q = p make multiplicative_order raise; the verifier reports
    # them as problems instead of propagating the error
    _problems_mention(dataclasses.replace(cert7, g=7), "not a primitive root")
    _problems_mention(_with_witness(cert7, q=7), "order mismatch")


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(WitnessRecord)]
)
def test_verify_rejects_each_tampered_witness_field(cert7, field):
    value = getattr(cert7.witnesses[-1], field)
    if isinstance(value, bool):
        bad = not value
    elif isinstance(value, str):
        bad = ROUTE_ANALYTIC
    else:
        bad = value + 1
    assert not verify_certificate(_with_witness(cert7, **{field: bad}))


def _single_witness_certificate(p, q):
    setup = CyclotomicSetup.create(p, q)
    ctx = build_field(setup)
    rec = _witness_record(setup, ctx, class_number(p), DEFAULT_FIELD_CAP)
    verdict = "Trivial" if rec.b % p else "Inconclusive"
    return Certificate(
        p=p, r=(p + 1) // 2, verdict=verdict, witnesses=(rec,), g=setup.g,
        field_cap=DEFAULT_FIELD_CAP,
        field_choices=((q, ctx.modulus_int, ctx.encode(ctx.alpha)),),
    )


# (23, 71) and (31, 1051) have i ≡ 0, so only the record's rule b >= 0 fixes b's sign
SIGNED_REP_CASES = (
    [pytest.param(partial(certify_half_plus, p), id=f"certify-{p}")
     for p in (19, 23, 31, 43, 47, 59)]
    + [pytest.param(partial(_single_witness_certificate, p, q), id=f"{p}-{q}")
       for p, q in ((23, 71), (31, 1051))]
)


@pytest.mark.parametrize("make", SIGNED_REP_CASES)
def test_verify_rejects_every_other_signed_representation(make):
    cert = make()
    assert check_certificate(cert) == []
    p = cert.p
    for k, w in enumerate(cert.witnesses):
        lead = w.n * pow(w.q, w.v, p) % p
        signed = {
            (sx * x, sy * y)
            for x, y in represent_all(p, 4 * w.q**w.h)
            for sx in (1, -1) for sy in (1, -1)
        }
        assert (w.a, w.b) in signed
        for a, b in signed - {(w.a, w.b)}:
            forged = dataclasses.replace(
                w, a=a, b=b, d0=(a + b) // 2, d1=(a - b) // 2, a1_mod_p=lead * b % p
            )
            witnesses = cert.witnesses[:k] + (forged,) + cert.witnesses[k + 1:]
            problems = check_certificate(dataclasses.replace(cert, witnesses=witnesses))
            assert problems, (p, w.q, a, b)


def test_verify_reports_an_order_below_n():
    # 2 has order 5 mod 31, and 5 divides n = 15, so 2^15 ≡ 1 passes the
    # check before the length bound; 2^15 encodes x^15, long enough for n
    assert pow(2, 15, 31) == 1 and multiplicative_order(2, 31) == 5
    w = WitnessRecord(q=2, n=15, v=0, h=3, d0=1, d1=0, a=1, b=1, a0_mod_p=30,
                      a1_mod_p=0, i_mod_p=0, qf_identity_ok=True, route=ROUTE_ANALYTIC)
    cert = Certificate(p=31, r=16, verdict="Trivial", witnesses=(w,), g=3,
                       field_cap=DEFAULT_FIELD_CAP, field_choices=((2, 2**15, 2),))
    assert check_certificate(cert) == ["witness q=2: order mismatch"]


def _nudged(value, step):
    """+1, -1, +step, *2 and negation of an integer, without the ones that change nothing."""
    return {value + 1, value - 1, value + step, 2 * value, -value} - {value}


def _mutants(doc):
    """(field, new value, document) for each single-field mutation of a
    certificate document; decimal strings stay strings."""
    p = doc["p"]
    for key in ("p", "r", "g", "field_cap"):
        for new in _nudged(doc[key], p):
            yield key, new, dict(doc, **{key: new})
    swap = {"Trivial": "Inconclusive", "Inconclusive": "Trivial"}
    yield "verdict", swap[doc["verdict"]], dict(doc, verdict=swap[doc["verdict"]])
    for k, w in enumerate(doc["witnesses"]):
        for key, value in w.items():
            if isinstance(value, bool):
                news = [not value]
            elif key == "route":
                news = [ROUTE_ANALYTIC if value == ROUTE_FULL else ROUTE_FULL]
            else:
                news = [type(value)(x) for x in _nudged(int(value), p)]
            for new in news:
                witnesses = list(doc["witnesses"])
                witnesses[k] = dict(w, **{key: new})
                yield key, new, dict(doc, witnesses=witnesses)
    for k, c in enumerate(doc["field_choices"]):
        q, modulus, generator = int(c["q"]), int(c["modulus"]), int(c["generator"])
        for key in ("modulus", "generator"):
            for new in _nudged(int(c[key]), q ** doc["witnesses"][k]["n"]):
                choice = {"modulus": modulus, "generator": generator, key: new}
                choices = list(doc["field_choices"])
                choices[k] = dict(c, **{key: str(new)})
                yield key, (k, q, choice["modulus"], choice["generator"]), dict(
                    doc, field_choices=choices)


def _base_q_digits(value, q):
    """Big-endian base-q digits, the coefficient lists of sympy's galoistools."""
    digits = []
    while value:
        value, d = divmod(value, q)
        digits.append(d)
    return digits[::-1]


def _names_an_equal_field(doc, k, q, modulus, generator):
    """Whether a field choice names an irreducible monic modulus of degree n
    and a primitive generator, by sympy's own tests, in which witness k's
    record is rebuilt unchanged."""
    p, n = doc["p"], doc["witnesses"][k]["n"]
    size = q**n
    if not (size <= modulus < 2 * size and 0 < generator < size):
        return False
    f = _base_q_digits(modulus, q)
    if not gf_irreducible_p(f, q, ZZ):
        return False
    x = _base_q_digits(generator, q)
    if any(gf_pow_mod(x, (size - 1) // ell, f, q, ZZ) == [1] for ell in factorint(size - 1)):
        return False
    setup = CyclotomicSetup.create(p, q, g=doc["g"])
    ctx = field_from_choice(setup, modulus, generator)
    rebuilt = _witness_record(setup, ctx, class_number(p), doc["field_cap"])
    return rebuilt == certificate_from_dict(doc).witnesses[k]


def _true_certificate(doc, key, new):
    """Mutations that leave a valid certificate: g ≡ another primitive root
    mod p, a field_cap under which every witness keeps its route, or a field
    choice that names an equal field."""
    p = doc["p"]
    if key in ("modulus", "generator"):
        return _names_an_equal_field(doc, *new)
    if key == "g":
        return new % p != 0 and is_primitive_root(new % p, p)
    if key == "field_cap":
        return all((w["q"] ** w["n"] <= new) == (w["route"] == ROUTE_FULL)
                   for w in doc["witnesses"])
    return False


def _rejected(doc):
    try:
        cert = certificate_from_dict(doc)
    except BadInput:
        return True
    return not verify_certificate(cert)


@pytest.mark.parametrize("p, route", [
    (19, ROUTE_FULL), (23, ROUTE_FULL), (31, ROUTE_ANALYTIC), (43, ROUTE_ANALYTIC),
    (47, ROUTE_FULL), (59, ROUTE_ANALYTIC),
])
def test_verify_rejects_every_single_field_mutation(p, route):
    doc = json.loads(json.dumps(certificate_to_dict(certify_half_plus(p))))
    assert [w["route"] for w in doc["witnesses"]] == [route]
    accepted, worst = [], 0.0
    for key, new, mutant in _mutants(doc):
        start = time.process_time()
        rejected = _rejected(mutant)
        worst = max(worst, time.process_time() - start)
        if not rejected and not _true_certificate(doc, key, new):
            accepted.append((key, new))
    assert accepted == []
    assert worst < 1.0


ROUND_TRIP_CASES = [
    (p, g) for p in (7, 11, 19, 23)
    for g in range(2, p) if multiplicative_order(g, p) == p - 1
]


@settings(max_examples=len(ROUND_TRIP_CASES), deadline=None)
@given(case=st.sampled_from(ROUND_TRIP_CASES))
def test_certificate_json_round_trip(case):
    p, g = case
    cert = certify_half_plus(p, g=g)
    back = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
    assert back == cert
    assert check_certificate(back) == []


def test_certify_g_invariance():
    for p in (7, 11, 23):
        base = certify_half_plus(p)
        roots = [g for g in range(2, p) if multiplicative_order(g, p) == p - 1]
        for g in roots:
            cert = certify_half_plus(p, g=g)
            w0, w1 = base.witnesses[-1], cert.witnesses[-1]
            assert cert.verdict == base.verdict
            assert (w1.q, w1.v, w1.h, w1.a, w1.b) == (w0.q, w0.v, w0.h, w0.a, w0.b)


def test_vandiver_p7():
    report = vandiver_scan(7)
    by_r = {s.r: s for s in report.scans}
    assert set(by_r) == {2, 4}
    assert by_r[4].verdict == "Trivial"
    assert by_r[4].witness_q == 2
    assert by_r[4].i_mod_p == 1
    assert by_r[4].admissible_orders == (3,)
    assert by_r[2].verdict == "Unknown"
    assert by_r[2].admissible_orders == ()
    assert by_r[2].tried == ((2, 3, 0), (13, 2, 0), (3, 6, 0), (11, 3, 0), (41, 2, 0))
    assert not report.all_certified


def test_vandiver_p11():
    report = vandiver_scan(11)
    by_r = {s.r: s for s in report.scans}
    assert set(by_r) == {2, 4, 6, 8}
    assert by_r[6].verdict == "Trivial"
    assert by_r[6].witness_q == 3
    assert by_r[6].i_mod_p == 10
    for r in (2, 4, 8):
        assert by_r[r].verdict == "Unknown"
        assert by_r[r].admissible_orders == ()


def test_vandiver_p5():
    # (Z/5)* has element orders {1, 2, 4}, all even, so no witness can certify
    report = vandiver_scan(5)
    assert [s.r for s in report.scans] == [2]
    scan = report.scans[0]
    assert scan.verdict == "Unknown"
    assert scan.admissible_orders == ()
    assert not report.all_certified


def test_vandiver_guard():
    with pytest.raises(BadPrime):
        vandiver_scan(4)
    with pytest.raises(BadPrime):
        vandiver_scan(3)


def test_vandiver_tried_witnesses_are_structural():
    # every recorded zero index must be structurally forced or genuinely zero
    report = vandiver_scan(7)
    for scan in report.scans:
        for q, n, i in scan.tried:
            assert isprime(q)
            assert multiplicative_order(q, 7) == n
            if n % 2 == 0 or (7 - scan.r) % n != 0:
                assert i == 0


# vandiver_scan(43), captured from the per-r index code: every r tries the
# same five smallest fields, and only q = 79 (order 3) can give i_r != 0
P43_TRIED_PREFIX = ((2, 14, 0), (257, 2, 0), (7, 6, 0), (601, 2, 0))
P43_I79 = {4: 4, 10: 37, 16: 16, 22: 42, 28: 38, 34: 15, 40: 33}
P43_ADMISSIBLE = {4: (3,), 8: (7,), 10: (3,), 16: (3,), 22: (3, 7, 21), 28: (3,),
                  34: (3,), 36: (7,), 40: (3,)}


def test_vandiver_p43_report_unchanged():
    report = vandiver_scan(43)
    assert [s.r for s in report.scans] == list(range(2, 41, 2))
    for s in report.scans:
        i = P43_I79.get(s.r, 0)
        assert s.tried == P43_TRIED_PREFIX + ((79, 3, i),), s.r
        assert s.verdict == ("Trivial" if i else "Unknown")
        assert (s.witness_q, s.i_mod_p) == ((79, i) if i else (None, None))
        assert s.admissible_orders == P43_ADMISSIBLE.get(s.r, ())


def _vandiver_oracle(p, max_witnesses_per_r, qbound, field_cap, vectors):
    """vandiver_scan as the per-r loop without the obstruction: the full sorted
    candidate list from sympy's n_order, and every tried field built and its
    IndexVector read at r. `vectors` caches the index vector of each q of p."""
    candidates = sorted(
        (q**n, q, n) for q, n in _prime_orders(p, qbound) if n >= 2 and q**n <= field_cap
    )
    scans = []
    for r in range(2, p - 2, 2):
        tried, hit = [], None
        for _, q, n in candidates[:max_witnesses_per_r]:
            if q not in vectors:
                setup = CyclotomicSetup.create(p, q)
                vectors[q] = index_vector(build_field(setup), setup)
            i_val = vectors[q].at(r)
            tried.append((q, n, i_val))
            if i_val:
                hit = (q, i_val)
                break
        d = gcd(p - 1, p - r)
        scans.append(EigenspaceScan(
            r=r, verdict="Trivial" if hit else "Unknown",
            witness_q=hit[0] if hit else None, i_mod_p=hit[1] if hit else None,
            tried=tuple(tried), admissible_orders=tuple(n for n in divisors(d) if n >= 3),
        ))
    return VandiverReport(p=p, scans=tuple(scans))


@pytest.mark.parametrize("p", list(primerange(5, 98)))
def test_vandiver_matches_the_per_r_oracle(p):
    vectors = {}
    for k in (1, 5, 8):
        for qbound in (3, 50, DEFAULT_QBOUND):
            for cap in (1, 1 << 12, DEFAULT_FIELD_CAP):
                want = _vandiver_oracle(p, k, qbound, cap, vectors)
                assert vandiver_scan(p, k, qbound, cap) == want, (k, qbound, cap)


def _count_builds(monkeypatch) -> list[tuple[int, int]]:
    """Record (q, n) of every field that `vandiver_scan` builds."""
    built = []

    def spy(setup):
        built.append((setup.q, setup.n))
        return build_field(setup)

    monkeypatch.setattr(certify, "build_field", spy)
    return built


@pytest.mark.parametrize("p", (41, 43, 47, 53, 59, 61))
def test_vandiver_builds_only_fields_an_even_r_can_read(p, monkeypatch):
    built = _count_builds(monkeypatch)
    report = vandiver_scan(p)
    assert len(built) == len(set(built))
    readable = {
        (q, n) for s in report.scans for q, n, _ in s.tried if (p - s.r) % n == 0
    }
    assert all(n % 2 for _, n in readable)
    assert set(built) == readable


def test_vandiver_builds_no_field_of_even_order(monkeypatch):
    # 2 and 3 are primitive roots mod 211, so both orders are 210 and even:
    # no even r can read F_{2^210} or F_{3^210}, and neither is built
    built = _count_builds(monkeypatch)
    report = vandiver_scan(211, qbound=3, field_cap=10**400)
    assert built == []
    assert [s.r for s in report.scans] == list(range(2, 209, 2))
    for s in report.scans:
        assert s.verdict == "Unknown"
        assert s.tried == ((2, 210, 0), (3, 210, 0))


EXPLORE_GOLDENS = {
    (13, "e4"): dict(q=3, n=3, v=1, d=(0, -1, -1, -1), r=10, i=4),
    (29, "e4"): dict(q=7, n=7, v=3, d=(1, 1, 1, 2), r=22, i=15),
    (19, "e6"): dict(q=7, n=3, v=1, d=(-1, -2, -2, -2, -1, -2), r=16, i=14),
}


@pytest.mark.parametrize("key", sorted(EXPLORE_GOLDENS))
def test_explore_goldens(key):
    p, which = key
    want = EXPLORE_GOLDENS[key]
    report = remark_explore(p, which)
    assert report.r == want["r"]
    w = report.witness
    assert (w.q, w.n, w.v) == (want["q"], want["n"], want["v"])
    assert w.d == want["d"]
    assert w.lhs == w.rhs
    assert w.i_mod_p == want["i"]
    assert w.verdict == ("Trivial" if want["i"] else "Unknown")


def test_explore_guards():
    with pytest.raises(BadEigenspaceIndex):
        remark_explore(13, "e5")
    with pytest.raises(BadPrime):
        remark_explore(13, "e6")  # 13 ≢ 7 mod 12
    with pytest.raises(BadPrime):
        remark_explore(45, "e4")  # composite, 45 ≡ 5 mod 8
    with pytest.raises(BadPrime):
        remark_explore(19, "e4")  # 19 ≢ 5 mod 8
    with pytest.raises(BadPrime, match="order 1 < 2"):
        remark_explore(5, "e4")  # 5 ≡ 5 mod 8, but (5 - 1)/4 = 1
