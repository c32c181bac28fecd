"""Cyclotomic-unit indices mod p and the two consistency checks tying them to
the period pipeline.

beta_r = prod_{i=1}^{p-1} (1 - zeta_p^i)^(i^(p-1-r)) reduces mod Q to a power
of alpha; i_r is the discrete log of beta_r^f inside the order-p subgroup.
With c_i = dlog_zeta((1 - zeta^i)^f) that log is sum_i c_i i^(-r) mod p.

In characteristic q, (1 - zeta^i)^q = 1 - zeta^(iq), so c_(iq) = q c_i and
the c_i are fixed by their values on the e = (p-1)/n coset representatives
g^k of <q> in (Z/p)^*. Summing the coset g^k <q> gives the factor
sum_(j<n) q^(j(1-r)), which is n when q^(1-r) = 1 and 0 otherwise:

    i_r = n * sum_(k<e) c_(g^k) g^(-kr)  (mod p)   if n | p - r,
    i_r = 0                                        otherwise.

So a whole field's indices cost one walk of <zeta>, whose table of p powers
holds every zeta^(g^k), every discrete log and every Frobenius conjugate
1 - zeta^(g^k·q^j) of a base, and e field powers, which build the targets
(1 - zeta^(g^k))^f (`index_vector`), e/2 of them for odd n, where the coset
of -g^k pairs with that of g^k; every r is then a sum of e terms mod p. The
second case is the "admissible orders" obstruction: a witness whose order n
does not divide p - r can never certify the r-th eigenspace. A nonzero i_r
certifies that the r-th even eigenspace of the p-part of the class group is
trivial; i_r = 0 decides nothing.
"""

from dataclasses import dataclass
from math import comb

from .errors import BadEigenspaceIndex, MissingIndex, NotInSubgroup
from .ffield import CyclotomicSetup, FieldContext, check_field_of, dlog_order_p

TRIVIAL = "Trivial"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class IndexRecord:
    r: int
    i_mod_p: int
    verdict: str


def verdict(i_mod_p: int) -> str:
    return TRIVIAL if i_mod_p else UNKNOWN


@dataclass(frozen=True)
class IndexVector:
    """Every unit index of one (p, q) field: c[k] = dlog_zeta((1 - zeta^(g^k))^f)
    for k < e, with n the order of q mod p."""

    p: int
    n: int
    g: int
    c: tuple[int, ...]

    def at(self, r: int) -> int:
        """i_r mod p for any r in [2, p-2], odd r included (used by the
        congruence checks, where even-order pairs put p - ln at odd values)."""
        p = self.p
        if not 2 <= r <= p - 2:
            raise BadEigenspaceIndex(f"r={r} outside [2, {p - 2}]")
        if (p - r) % self.n:
            return 0
        step = pow(self.g, -r, p)
        total, weight = 0, 1
        for ck in self.c:
            total += ck * weight
            weight = weight * step % p
        return self.n * total % p


def index_vector(ctx: FieldContext, setup: CyclotomicSetup) -> IndexVector:
    """The field's IndexVector: one walk of <zeta> tabulates its p powers, and
    the table gives every zeta^(g^k) and every discrete log.

    A coset's target (1 - zeta^m)^f, m = g^k, is a power by the base-q digits
    of f < q^n (`_Kronecker.conjugate_pow`) over the conjugates
    sigma^j(1 - zeta^m) = (1 - zeta^m)^(q^j) = 1 - zeta^(m·q^j), which the
    table holds, so it needs no other power.

    For odd n only the first e/2 cosets take one: 1 - zeta^(-m) =
    -zeta^(-m)·(1 - zeta^m), and (-1)^f = 1 (f = (q^n - 1)/p is even for odd
    q, and -1 = 1 for q = 2), so c_(-m) = c_m - m·f mod p. -1 = g^((p-1)/2)
    is outside <q>, whose order n is odd, and u = -g^(e/2) = g^(e(n+1)/2) is
    in <q> = <g^e>, so g^(k+e/2) = u·(-g^k) with u = q^i for some i; since
    (1 - zeta^m)^(q^i) = 1 - zeta^(m·q^i), c_(u·m) = u·c_m, and so
    c[k + e/2] = u·(c[k] - g^k·f) mod p. BadInput unless `ctx` is the field of `setup`."""
    check_field_of(ctx, setup)
    p, g, q, n, f = setup.p, setup.g, setup.q, setup.n, setup.f
    logs = dlog_order_p(ctx, p)
    powers = list(logs)  # powers[k] = zeta^k, packed
    form = ctx.kronecker
    q_powers = [pow(q, j, p) for j in range(n)]
    paired = n % 2
    c = []
    gk = 1
    for _ in range(setup.e // 2 if paired else setup.e):
        conjugates = [form.sub(1, powers[gk * qj % p]) for qj in q_powers]
        target = form.conjugate_pow(conjugates, f)
        if target not in logs:
            raise NotInSubgroup("(1 - zeta^i)^f is not a p-th root of unity")
        c.append(logs[target])
        gk = gk * g % p
    if paired:
        u = -pow(g, setup.e // 2, p)
        c += [u * (ck - pow(g, k, p) * f) % p for k, ck in enumerate(c)]
    return IndexVector(p=p, n=n, g=g, c=tuple(c))


def index_mod_p(ctx: FieldContext, setup: CyclotomicSetup, r: int) -> int:
    """i_r mod p for any r in [2, p-2]; read several r from one `index_vector`."""
    return index_vector(ctx, setup).at(r)


def index_record(vector: IndexVector, r: int) -> IndexRecord:
    """The verdict on i_r read from `vector`, for an even r in [2, p-3]."""
    if r % 2 or not 2 <= r <= vector.p - 3:
        raise BadEigenspaceIndex(f"r={r} must be even and in [2, {vector.p - 3}]")
    i = vector.at(r)
    return IndexRecord(r=r, i_mod_p=i, verdict=verdict(i))


def beta_index_mod_p(ctx: FieldContext, setup: CyclotomicSetup, r: int) -> IndexRecord:
    return index_record(index_vector(ctx, setup), r)


def verify_identity_i(setup: CyclotomicSetup, table) -> int:
    """Exact residual of e^2 q^(n-2v) = (sum d)^2 + p(e sum d^2 - (sum d)^2)."""
    e, q, n, p = setup.e, setup.q, setup.n, setup.p
    s1 = sum(table.d)
    s2 = sum(x * x for x in table.d)
    return e * e * q ** (n - 2 * table.v) - (s1 * s1 + p * (e * s2 - s1 * s1))


def congruence_residual(setup: CyclotomicSetup, a, l: int, i_val: int) -> int:
    """Residual mod p of the degree-l product congruence.

    sum_{m=1}^{l} (-1)^m C(ln-1, mn-1) a_{l-m} a_m == -i_{p-ln} (mod p),
    so the returned value is (sum + i) mod p and must vanish.
    """
    p, n = setup.p, setup.n
    total = sum(
        (-1) ** m * comb(l * n - 1, m * n - 1) * a[l - m] * a[m] for m in range(1, l + 1)
    )
    return (total + i_val) % p


def verify_congruences_ii(setup: CyclotomicSetup, a, indices) -> tuple[int, dict[int, int]]:
    """Check a_0 ≡ -1 and the odd-l product congruences.

    `indices` maps each odd l in [1, e-1] to i_{p-ln} mod p. Returns the a_0
    residual together with the per-l residuals; all must be 0 mod p.
    """
    p = setup.p
    a0_residual = (a[0] + 1) % p
    residuals: dict[int, int] = {}
    for l in range(1, setup.e, 2):
        if l not in indices:
            raise MissingIndex(f"no index supplied for l={l} (r={p - l * setup.n})")
        residuals[l] = congruence_residual(setup, a, l, indices[l])
    return a0_residual, residuals
