"""Gaussian periods, the valuation v, and the derived integer sequences d and a.

For m in [0, p): eta_m = sum over k ≡ m (mod p), k < q^n - 1, of zeta_q^Tr(alpha^k),
counted as a row over the q-th roots of unity. Every eta_m here is a rational
integer, so each row has equal entries off trace 0. v is the minimal coset
digit-sum valuation; d_i are the scaled period differences and a_k their
exact character-twisted sums.

The rows come from `_scan.scan_counts`, which counts one row per coset of
<q> mod p from a decimated, projective trace sequence of (q^n - 1)/(p(q - 1))
terms, read off alpha's multiplication matrix in the field's basis x^i;
`compute_period_table` checks every row's sum, rationality and the periods' sum.
"""

from dataclasses import dataclass

from .errors import DivisibilityFailure, InternalInvariant, NonIntegralPeriod
from .ffield import CyclotomicSetup, FieldContext, generator_recurrence, multiplicative_order
from ._scan import scan_counts


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


def compute_period_table(
    ctx: FieldContext, setup: CyclotomicSetup, backend: str = "numpy"
) -> PeriodTable:
    p, q, f = setup.p, setup.q, setup.f
    cols, trace = generator_recurrence(ctx)
    counts = scan_counts(cols, trace, ctx.order, p, q, backend=backend)
    rows = tuple(tuple(int(c) for c in row) for row in counts)
    values = []
    for m, row in enumerate(rows):
        if sum(row) != f:
            raise InternalInvariant(f"eta_{m} count total {sum(row)} != f = {f}")
        if any(c != row[1] for c in row[2:]):
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
