"""Certificates that the eigenspace component at r = (p+1)/2 is trivial.

A witness is a prime q of multiplicative order (p-1)/2 mod p. Its record links
three independently computable objects: the quadratic-form representation
4q^h = a^2 + p*b^2, the Gaussian-period data (d0, d1) with a = d0+d1 and
b = d0-d1, and the unit index i mod p at r = (p+1)/2. Whenever p does not
divide b the eigenspace is trivial and the certificate closes.

Witnesses whose field q^n fits under the cap get the full period pipeline and
the form representation, cross-checked against each other. Beyond the cap the
period scan is skipped; the representation of 4q^h (unique up to sign with
p not dividing a) plus the index pin down signed a, b, d0, d1 exactly, so the
record carries the same information either way. The verifier rebuilds each
record in its stored field with the same function and compares the two.
"""

import re
from dataclasses import MISSING, asdict, dataclass, field, fields
from heapq import merge
from itertools import islice
from math import gcd

from ._nt import factor, is_prime
from .errors import (
    BadEigenspaceIndex,
    BadInput,
    BadPrime,
    BoundExhausted,
    EigenvanishError,
    InternalInvariant,
)
from .ffield import (
    CyclotomicSetup,
    FieldContext,
    build_field,
    check_modulus_length,
    check_primitive_root,
    field_from_choice,
    multiplicative_order,
)
from .periods import compute_period_table, compute_v
from .quadforms import ClassNumberData, class_number, represent_all
from .units import TRIVIAL, UNKNOWN, IndexVector, index_mod_p, index_vector, verdict

DEFAULT_FIELD_CAP = 1 << 27
DEFAULT_QBOUND = 10_000

INCONCLUSIVE = "Inconclusive"

ROUTE_FULL = "periods+forms"
ROUTE_ANALYTIC = "forms+index"


def _primes_of_order(p: int, n: int, qbound: int):
    """The primes q <= qbound of order n mod the prime p, ascending and lazily.
    Such q lie in the residue classes a mod p of order n: a^n ≡ 1 and
    a^(n/ell) ≢ 1 for each prime ell of n. Only the classes a <= qbound can
    hold one, so at most min(p, qbound) residues are tested, and a class
    whose progression ends at a (a + p > qbound) only if a is prime; the
    progressions of the classes found are merged and their primes kept."""
    ells = factor(n)
    classes = [
        a for a in range(1, min(p, qbound + 1))
        if (a + p <= qbound or is_prime(a))
        and pow(a, n, p) == 1 and all(pow(a, n // ell, p) != 1 for ell in ells)
    ]
    return filter(is_prime, merge(*(range(a, qbound + 1, p) for a in classes)))


@dataclass(frozen=True)
class WitnessRecord:
    q: int
    n: int
    v: int
    h: int
    d0: int
    d1: int
    a: int
    b: int
    a0_mod_p: int
    a1_mod_p: int
    i_mod_p: int
    qf_identity_ok: bool
    route: str = "unknown"  # what certificate_from_dict reads when a document has none


@dataclass(frozen=True)
class Certificate:
    p: int
    r: int
    verdict: str
    witnesses: tuple[WitnessRecord, ...]
    g: int
    field_cap: int
    # (q, modulus encoding, generator encoding) per witness, little-endian base q
    field_choices: tuple[tuple[int, int, int], ...] = field(default=())


def _verdict(p: int, witnesses) -> str:
    return TRIVIAL if any(w.b % p for w in witnesses) else INCONCLUSIVE


def _witness_record(
    setup: CyclotomicSetup, ctx: FieldContext, cn: ClassNumberData, field_cap: int
) -> WitnessRecord:
    """The witness record of setup's q in the field ctx; the producer and the
    verifier both build their records here. |a|, |b| come from the unique
    representation 4q^h = a^2 + p b^2 with gcd(a, b) | 2 (a pure prime-power
    ideal generator, possibly half-integral); the signs from a0 ≡ -1 and
    i ≡ a0*a1 mod p, with b >= 0 when i ≡ 0."""
    p, q, n, h = setup.p, setup.q, setup.n, cn.h
    v = compute_v(p, q, setup.g)
    if v != cn.R:
        raise InternalInvariant(f"v={v} != R={cn.R} for order-(p-1)/2 witness q={q}")
    i_val = index_mod_p(ctx, setup, (p + 1) // 2)
    all_reps = represent_all(p, 4 * q**h)
    if any(x % p == 0 for x, _ in all_reps):
        raise InternalInvariant(f"a representation of 4*{q}^{h} has p | a")
    reps = [(x, y) for x, y in all_reps if gcd(x, y) <= 2]
    if len(reps) != 1:
        raise InternalInvariant(
            f"expected one primitive representation of 4*{q}^{h}, got {reps}"
        )
    absa, absb = reps[0]
    lead = n * pow(q, v, p) % p
    # a0 = lead*a ≡ -1, so i ≡ a0*a1 = lead*a * lead*b holds iff lead*b ≡ -i
    a = next((s * absa for s in (1, -1) if lead * s * absa % p == p - 1), None)
    if a is None:
        raise InternalInvariant(f"neither sign of a={absa} gives a0 ≡ -1 mod {p}")
    b = next((s * absb for s in (1, -1) if lead * s * absb % p == -i_val % p), None)
    if b is None:
        raise InternalInvariant(f"neither sign of b={absb} matches i={i_val} mod {p}")
    if (a + b) % 2:
        raise InternalInvariant(f"a={a}, b={b} have different parity")
    return WitnessRecord(
        q=q, n=n, v=v, h=h, d0=(a + b) // 2, d1=(a - b) // 2, a=a, b=b,
        a0_mod_p=p - 1, a1_mod_p=lead * b % p, i_mod_p=i_val,
        qf_identity_ok=(4 * q**h == a * a + p * b * b),
        route=ROUTE_FULL if setup.field_size() <= field_cap else ROUTE_ANALYTIC,
    )


def certify_half_plus(
    p: int,
    max_witnesses: int = 8,
    qbound: int = DEFAULT_QBOUND,
    field_cap: int = DEFAULT_FIELD_CAP,
    g: int | None = None,
) -> Certificate:
    """Run witnesses of order (p-1)/2 until one shows p ∤ b (verdict Trivial).
    A witness whose field fits under the cap also has its periods scanned
    and compared with the record."""
    if p <= 3 or p % 4 != 3 or not is_prime(p):
        raise BadPrime(f"p={p} must be a prime ≡ 3 mod 4, p > 3")
    if max_witnesses < 1:
        raise BadInput(f"max_witnesses={max_witnesses} must be at least 1")
    check_primitive_root(p, g)
    cn = class_number(p)
    n = (p - 1) // 2
    records: list[WitnessRecord] = []
    choices: list[tuple[int, int, int]] = []
    for q in _primes_of_order(p, n, qbound):
        setup = CyclotomicSetup.create(p, q, g=g)
        ctx = build_field(setup)
        rec = _witness_record(setup, ctx, cn, field_cap)
        if rec.route == ROUTE_FULL:
            table = compute_period_table(ctx, setup)
            if table.d != (rec.d0, rec.d1):
                raise InternalInvariant(
                    f"period route d={table.d} disagrees with form route {(rec.d0, rec.d1)}"
                )
        records.append(rec)
        choices.append((q, ctx.modulus_int, ctx.encode(ctx.alpha)))
        if rec.b % p or len(records) == max_witnesses:
            break
    if not records:
        raise BoundExhausted(f"no primes of order {n} mod {p} below {qbound}")
    return Certificate(
        p=p, r=(p + 1) // 2, verdict=_verdict(p, records),
        witnesses=tuple(records), g=setup.g, field_cap=field_cap,
        field_choices=tuple(choices),
    )


def _record_problems(tag: str, stored: WitnessRecord, want: WitnessRecord) -> list[str]:
    problems = []
    for name in (f.name for f in fields(WitnessRecord)):
        got, exp = getattr(stored, name), getattr(want, name)
        if got != exp:
            label = name.removesuffix("_mod_p")
            source = "the stored field gives" if label == "i" else "recomputed"
            problems.append(f"{tag}: {label}={got!r} but {source} {label} = {exp!r}")
    return problems


def check_certificate(cert: Certificate) -> list[str]:
    """Recompute every witness record in its stored field, with the function
    that made it, and compare it with the stored one field by field; also
    check p, r, the verdict, h(-p), g and each q. The stored modulus and
    generator are checked (irreducible, primitive), not searched for again.
    Before a witness's modulus is long enough for degree n = (p-1)/2, only
    checks that factor nothing run (q prime, q^n ≡ 1 mod p); the orders of
    q and g, which factor p - 1, and h(-p) wait for it. Returns problems."""
    problems: list[str] = []
    p = cert.p
    if p <= 3 or p % 4 != 3 or not is_prime(p):
        return [f"p={p} is not a prime ≡ 3 mod 4 above 3"]
    n = (p - 1) // 2
    if cert.r != (p + 1) // 2:
        problems.append(f"r={cert.r} is not (p+1)/2")
    if cert.verdict not in (TRIVIAL, INCONCLUSIVE):
        problems.append(f"unknown verdict {cert.verdict!r}")
    if not cert.witnesses:
        problems.append("the certificate has no witnesses")
    choices = cert.field_choices
    if [c[0] for c in choices] != [w.q for w in cert.witnesses]:
        problems.append("field_choices do not list the witnesses' q in order")
        choices = (None,) * len(cert.witnesses)
    g_ok = cn = None
    for w, choice in zip(cert.witnesses, choices):
        tag = f"witness q={w.q}"
        if gcd(w.q, p) != 1 or pow(w.q, n, p) != 1:
            problems.append(f"{tag}: order mismatch")
        elif not is_prime(w.q):
            problems.append(f"{tag}: q is not prime")
        elif choice:
            try:
                check_modulus_length(w.q, n, choice[1])  # p is bounded from here on
                if multiplicative_order(w.q, p) != n:
                    problems.append(f"{tag}: order mismatch")
                    continue
                if g_ok is None:
                    g_ok = gcd(cert.g, p) == 1 and multiplicative_order(cert.g, p) == p - 1
                    if not g_ok:
                        problems.append(f"g={cert.g} is not a primitive root mod {p}")
                cn = cn or class_number(p)
                if w.h != cn.h:
                    problems.append(f"{tag}: h={w.h} but h(-{p}) = {cn.h}")
                elif g_ok:
                    setup = CyclotomicSetup.create(p, w.q, g=cert.g)
                    ctx = field_from_choice(setup, *choice[1:])
                    want = _witness_record(setup, ctx, cn, cert.field_cap)
                    problems.extend(_record_problems(tag, w, want))
            except EigenvanishError as exc:
                problems.append(f"{tag}: cannot recompute the record: {exc}")
    expected = _verdict(p, cert.witnesses)
    if cert.verdict != expected:
        problems.append(f"verdict {cert.verdict!r} but witnesses say {expected!r}")
    return problems


def verify_certificate(cert: Certificate) -> bool:
    return not check_certificate(cert)


CERT_SCHEMA = "eigenvanish-certificate/1"

_DECIMAL_FIELDS = frozenset({"d0", "d1", "a", "b"})  # can outgrow a double: strings


def certificate_to_dict(cert: Certificate) -> dict:
    """JSON-safe dict; exact integers that can outgrow doubles go as strings."""
    return {
        "schema": CERT_SCHEMA,
        "p": cert.p,
        "r": cert.r,
        "verdict": cert.verdict,
        "g": cert.g,
        "field_cap": cert.field_cap,
        "witnesses": [
            {name: str(value) if name in _DECIMAL_FIELDS else value
             for name, value in asdict(w).items()}
            for w in cert.witnesses
        ],
        "field_choices": [
            {"q": q, "modulus": str(m), "generator": str(a)}
            for q, m, a in cert.field_choices
        ],
    }


def _int(value) -> int:
    """A JSON int (not a bool) or a decimal string, as certificate_to_dict writes them."""
    if type(value) is int or (isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value)):
        return int(value)
    raise TypeError(f"{value!r} is neither an integer nor a decimal string")


def _of(kind: type, value):
    if not isinstance(value, kind):
        raise TypeError(f"{value!r} is not a {kind.__name__}")
    return value


def _read(f, w: dict):
    """Witness field f of document w, by its type; a field with a default may be absent."""
    value = w[f.name] if f.default is MISSING else w.get(f.name, f.default)
    return _int(value) if f.type is int else _of(f.type, value)


def certificate_from_dict(data: dict) -> Certificate:
    try:
        witnesses = tuple(
            WitnessRecord(**{f.name: _read(f, w) for f in fields(WitnessRecord)})
            for w in data["witnesses"]
        )
        choices = tuple(
            (_int(c["q"]), _int(c["modulus"]), _int(c["generator"]))
            for c in data.get("field_choices", [])
        )
        return Certificate(
            p=_int(data["p"]), r=_int(data["r"]), verdict=_of(str, data["verdict"]),
            witnesses=witnesses, g=_int(data["g"]),
            field_cap=_int(data["field_cap"]), field_choices=choices,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInput(f"malformed certificate: {exc}") from None


def _fields_of_order(p: int, n: int, qbound: int, field_cap: int):
    """(field size, q, n) for the primes q of order n mod p, ascending, up to
    the first q with q^n > field_cap."""
    for q in _primes_of_order(p, n, qbound):
        if (size := q**n) > field_cap:
            return
        yield size, q, n


def _witness_fields(p: int, qbound: int, field_cap: int):
    """(field size, q, n) for every candidate witness prime, smallest fields
    first. The order n of q mod p divides p - 1, and n < the cap's bit length,
    else q^n >= 2^n > field_cap. The fields are yielded lazily, merged from one
    ascending stream per n, so a caller that reads k of them lists no more."""
    return merge(*(
        _fields_of_order(p, n, qbound, field_cap)
        for n in range(2, min(p, field_cap.bit_length())) if (p - 1) % n == 0
    ))


@dataclass(frozen=True)
class EigenspaceScan:
    r: int
    verdict: str
    witness_q: int | None
    i_mod_p: int | None
    tried: tuple[tuple[int, int, int], ...]  # (q, n, i mod p)
    admissible_orders: tuple[int, ...]


@dataclass(frozen=True)
class VandiverReport:
    p: int
    scans: tuple[EigenspaceScan, ...]

    @property
    def all_certified(self) -> bool:
        return all(s.verdict == TRIVIAL for s in self.scans)


def _admissible_orders(p: int, r: int) -> tuple[int, ...]:
    # i_r can only be nonzero when ord_p(q) divides p - r (and is odd, which
    # is automatic since p - r is odd for even r); n = 1 would need q ≡ 1.
    d = gcd(p - 1, p - r)
    return tuple(n for n in range(3, d + 1) if d % n == 0)


def vandiver_scan(
    p: int,
    max_witnesses_per_r: int = 5,
    qbound: int = DEFAULT_QBOUND,
    field_cap: int = DEFAULT_FIELD_CAP,
    g: int | None = None,
) -> VandiverReport:
    """Try to certify every even eigenspace r in [2, p-3] via successive
    witness primes, smallest fields first.
    Only the first max_witnesses_per_r witness fields are listed, and a field
    is built only for an odd order n that divides p - r for an r that tries it."""
    if p <= 3 or not is_prime(p):
        raise BadPrime(f"p={p} must be an odd prime > 3")
    if max_witnesses_per_r < 1:
        raise BadInput(f"max_witnesses_per_r={max_witnesses_per_r} must be at least 1")
    check_primitive_root(p, g)
    candidates = list(islice(_witness_fields(p, qbound, field_cap), max_witnesses_per_r))
    vectors: dict[int, IndexVector] = {}
    scans = []
    for r in range(2, p - 2, 2):
        tried = []
        hit = None
        for _, q, n in candidates:
            if (p - r) % n:
                i_val = 0  # the obstruction: n does not divide p - r
            else:
                if q not in vectors:
                    setup = CyclotomicSetup.create(p, q, g=g)
                    vectors[q] = index_vector(build_field(setup), setup)
                i_val = vectors[q].at(r)
            tried.append((q, n, i_val))
            if i_val:
                hit = (q, i_val)
                break
        scans.append(
            EigenspaceScan(
                r=r,
                verdict=TRIVIAL if hit else UNKNOWN,
                witness_q=hit[0] if hit else None,
                i_mod_p=hit[1] if hit else None,
                tried=tuple(tried),
                admissible_orders=_admissible_orders(p, r),
            )
        )
    return VandiverReport(p=p, scans=tuple(scans))


@dataclass(frozen=True)
class ExploreWitness:
    q: int
    n: int
    v: int
    d: tuple[int, ...]
    sum_d: int
    spread: int  # e*sum(d^2) - (sum d)^2
    lhs: int
    rhs: int
    i_mod_p: int
    verdict: str


@dataclass(frozen=True)
class ExploreReport:
    p: int
    which: str
    e: int
    r: int
    witness: ExploreWitness


_EXPLORE = {"e4": (4, 8, 5), "e6": (6, 12, 7)}


def remark_explore(
    p: int,
    which: str,
    qbound: int = DEFAULT_QBOUND,
    field_cap: int = DEFAULT_FIELD_CAP,
    g: int | None = None,
) -> ExploreReport:
    """Order-(p-1)/4 and order-(p-1)/6 analogues of the witness identity:
    e^2 q^(n-2v) = (Σd)^2 + p(e Σd^2 - (Σd)^2), plus the index at the
    matching eigenspace r. Identity checking only — no vanishing claim."""
    if which not in _EXPLORE:
        raise BadEigenspaceIndex(f"which={which!r} must be 'e4' or 'e6'")
    e, mod, residue = _EXPLORE[which]
    if p % mod != residue or not is_prime(p):
        raise BadPrime(f"p={p} must be a prime ≡ {residue} mod {mod} for {which}")
    n = (p - 1) // e
    if n < 2:
        raise BadPrime(f"p={p} gives order {n} < 2")
    check_primitive_root(p, g)
    r = ((e - 1) * p + 1) // e
    for q in _primes_of_order(p, n, qbound):
        if q**n > field_cap:
            break  # the primes ascend, so every later field is larger still
        setup = CyclotomicSetup.create(p, q, g=g)
        ctx = build_field(setup)
        table = compute_period_table(ctx, setup)
        s1 = sum(table.d)
        spread = e * sum(x * x for x in table.d) - s1 * s1
        rhs = s1 * s1 + p * spread
        lhs = e * e * q ** (n - 2 * table.v)
        if lhs != rhs:
            raise InternalInvariant(f"identity fails for p={p}, q={q}: {lhs} != {rhs}")
        i_val = index_mod_p(ctx, setup, r)
        witness = ExploreWitness(
            q=q, n=n, v=table.v, d=table.d, sum_d=s1, spread=spread,
            lhs=lhs, rhs=rhs, i_mod_p=i_val, verdict=verdict(i_val),
        )
        return ExploreReport(p=p, which=which, e=e, r=r, witness=witness)
    raise BoundExhausted(
        f"no prime of order {n} mod {p} with field under {field_cap} below {qbound}"
    )
