"""Gaussian periods, the valuation v, and the derived integer sequences d and a.

For m in [0, p): eta_m = sum over k ≡ m (mod p), k < q^n - 1, of zeta_q^Tr(alpha^k),
counted as a row over the q-th roots of unity. Every eta_m here is a rational
integer, so each row has equal entries off trace 0. v is the minimal coset
digit-sum valuation; d_i are the scaled period differences and a_k their
exact character-twisted sums.

The rows come from one of two production routes, or from the oracle. For
even n they are a closed form in (p, q, n) alone (`_semiprimitive_rows`, the
semiprimitive case); for odd n, `_scan.scan_counts` counts one row per
coset of <q> mod p from a decimated trace sequence of (q^n - 1)/(p(q^d - 1))
orbits of F_{q^d}^*, d the largest proper divisor of n, read off alpha's
multiplication matrix in the field's basis x^i. `_scan._scan_python` is the
oracle of both. `compute_period_table` checks every row's sum, rationality
and the periods' sum, whichever route made the rows.
"""

from dataclasses import dataclass

from .errors import DivisibilityFailure, InternalInvariant, NonIntegralPeriod
from .ffield import (CyclotomicSetup, FieldContext, check_field_of, generator_recurrence,
                     multiplicative_order)
from ._scan import _scan_python, require_exact, scan_counts


@dataclass(frozen=True)
class PeriodTable:
    """counts[m][t] is how many k ≡ m (mod p), k < q^n - 1, have Tr(alpha^k) = t;
    eta_values[m] = counts[m][0] - counts[m][1], the integer eta_m."""

    counts: tuple[tuple[int, ...], ...]
    eta_values: tuple[int, ...]
    v: int
    d: tuple[int, ...]
    a: tuple[int, ...]


def compute_v(p: int, q: int, g: int) -> int:
    """min over cosets of (1/p) * sum of residues |g^(k+e*l)|_p, l < n."""
    n = multiplicative_order(q, p)
    e = (p - 1) // n
    best = None
    for k in range(e):
        s = sum(pow(g, k + e * l, p) for l in range(n))
        if s % p:
            raise InternalInvariant(f"coset residue sum {s} not divisible by {p}")
        best = s // p if best is None else min(best, s // p)
    if best is None or best < 1:
        raise InternalInvariant("valuation must be positive")
    return best


def compute_d(setup: CyclotomicSetup, eta_values, v: int) -> tuple[int, ...]:
    """d_i = (eta_{g^i} - eta_0) / q^v, exact."""
    p, q, g, e = setup.p, setup.q, setup.g, setup.e
    scale = q**v
    d = []
    for i in range(e):
        diff = eta_values[pow(g, i, p)] - eta_values[0]
        if diff % scale:
            raise DivisibilityFailure(f"eta_(g^{i}) - eta_0 = {diff} not divisible by {q}^{v}")
        d.append(diff // scale)
    return tuple(d)


def compute_a(setup: CyclotomicSetup, d, v: int) -> tuple[int, ...]:
    """a_k = n q^v sum_i g^(nki) d_i as exact integers (plain powers of g)."""
    n, q, g, e = setup.n, setup.q, setup.g, setup.e
    lead = n * q**v
    return tuple(lead * sum(g ** (n * k * i) * d[i] for i in range(e)) for k in range(e))


def _semiprimitive_rows(p: int, q: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The count rows of `compute_period_table` for an even n = 2d, from
    (p, q, n) alone, for any alpha that generates F_{q^n}^*: the semiprimitive
    case, q^d ≡ -1 (mod p) (Baumert–Mills–Ward, "Uniform cyclotomy",
    J. Number Theory 14, 1982).

    Here d is the largest proper divisor of n, so `_scan`'s row formula
    applies with N_d = q^d + 1 orbits alpha^k·F_{q^d}^*, k < q^d + 1, and
    span = N_d/p of them in each residue class k ≡ m (mod p). The relative
    trace x + x^(q^d) is F_{q^d}-linear onto F_{q^d}, so its kernel has
    F_{q^d}-dimension 1: exactly one orbit, alpha^k·F_{q^d}^*, has relative
    trace 0. x -> x^q maps that kernel to itself and alpha^k to alpha^(qk),
    so qk ≡ k (mod q^d + 1), hence (q-1)·k ≡ 0 (mod p), and k ≡ 0 (mod p) as
    p does not divide q - 1. So Y_0 = 1 and Y_m = 0 for m != 0:

    - row 0 holds (q^d-1) + (q^(d-1)-1)(span-1) at trace 0 and
      q^(d-1)(span-1) at each nonzero trace;
    - every other row holds (q^(d-1)-1)·span at trace 0 and q^(d-1)·span at
      each nonzero trace;

    so eta_0 = q^d - span and eta_m = -span."""
    d = n // 2
    span, low = (q**d + 1) // p, q ** (d - 1)
    first = ((q**d - 1) + (low - 1) * (span - 1),) + (low * (span - 1),) * (q - 1)
    other = ((low - 1) * span,) + (low * span,) * (q - 1)
    return (first,) + (other,) * (p - 1)


def compute_period_table(
    ctx: FieldContext, setup: CyclotomicSetup, backend: str = "numpy"
) -> PeriodTable:
    """The checked period table of `ctx`, whose alpha generates F_{q^n}^*
    (as `build_field` and `field_from_choice` certify). `backend` is the one
    switch: "numpy" (production) builds the rows by `_semiprimitive_rows` when
    n is even, with no scan, and by `scan_counts` when n is odd; "python"
    runs the slow oracle `_scan_python` for every n; any other value raises
    ValueError. Either production route refuses n(q-1)^2 >= 2^53 with
    FieldTooLarge. BadInput unless `ctx` is the field of `setup`."""
    if backend not in ("numpy", "python"):
        raise ValueError(f"unknown scan backend {backend!r}")
    check_field_of(ctx, setup)
    p, q, f = setup.p, setup.q, setup.f
    if backend == "numpy" and setup.n % 2 == 0:
        require_exact(setup.n, q)
        rows = _semiprimitive_rows(p, q, setup.n)
    else:
        cols, trace = generator_recurrence(ctx)
        scan = scan_counts if backend == "numpy" else _scan_python
        counts = scan(cols, trace, ctx.order, p, q)
        rows = tuple(map(tuple, counts.tolist()))  # Python ints, in one C call
    values = []
    for m, row in enumerate(rows):
        if sum(row) != f:
            raise InternalInvariant(f"eta_{m} count total {sum(row)} != f = {f}")
        if row[1:].count(row[1]) != q - 1:
            raise NonIntegralPeriod(f"eta_{m} counts {row} not Galois-fixed")
        values.append(row[0] - row[1])
    if sum(values) != -1:
        raise InternalInvariant(f"sum of periods is {sum(values)}, expected -1")

    v = compute_v(p, q, setup.g)
    if setup.n - 2 * v < 0:
        raise InternalInvariant(f"n - 2v = {setup.n - 2 * v} < 0")
    d = compute_d(setup, values, v)
    a = compute_a(setup, d, v)
    return PeriodTable(counts=rows, eta_values=tuple(values), v=v, d=d, a=a)
