"""Imaginary-quadratic class numbers and representations by x^2 + D*y^2.

Class numbers h(-p) for p ≡ 3 mod 4 arrive two independent ways: scaled
residue/nonresidue sums, and a brute count of reduced binary quadratic forms.
Representations: Cornacchia for a prime target; for any N, one route that
factors N once, takes the square roots of -D mod each prime power of N
(Tonelli-Shanks and a Hensel lift; a prime square dividing D and N is
divided out first), joins them by CRT and descends from each (Cohen, A Course
in Computational Algebraic Number Theory, 1.5), with the exhaustive scan
kept as its oracle; odd-power lifting of solutions, the sign congruence for
the distinguished representation of 4q^h, and prime-density estimates for
the forms x^2 + p*y^2 and x^2 + p^3*y^2.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, isqrt

from ._nt import factor, is_prime, prime_sieve
from .errors import (
    BadDiscriminant,
    BadInput,
    BadPrime,
    BoundTooSmall,
    EvenExponent,
    InternalInvariant,
    SearchTooLarge,
)

_EXHAUSTIVE_LIMIT = 1 << 21  # max floor(sqrt(N)) the brute scan will walk


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion."""
    if p < 3 or p % 2 == 0:
        raise BadPrime(f"p={p} must be an odd prime")
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


@dataclass(frozen=True)
class ClassNumberData:
    p: int
    R: int
    V: int
    h: int


def class_number(p: int) -> ClassNumberData:
    """h(-p) = V - R, where pR sums the quadratic residues x^2 mod p for
    1 <= x <= (p-1)/2 and pV the nonresidues, so that V = (p-1)/2 - R."""
    if p <= 3 or p % 4 != 3 or not is_prime(p):
        raise BadPrime(f"p={p} must be a prime ≡ 3 mod 4, p > 3")
    half = (p - 1) // 2
    residues = {x * x % p for x in range(1, half + 1)}
    res_sum = sum(residues)
    if len(residues) != half or res_sum % p:
        raise InternalInvariant("the squares mod p are not (p-1)/2 residues summing to 0 mod p")
    R = res_sum // p
    V = half - R
    h = V - R
    if h < 1 or h % 2 == 0:
        raise InternalInvariant(f"h = {h} is not a positive odd integer")
    return ClassNumberData(p=p, R=R, V=V, h=h)


def reduced_forms_count(disc: int) -> int:
    """Number of reduced forms (a,b,c), b^2 - 4ac = disc < 0: |b| <= a <= c,
    with b >= 0 when |b| = a or a = c."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise BadDiscriminant(f"disc={disc} must be negative and 0 or 1 mod 4")
    count = 0
    amax = isqrt(-disc // 3) + 1
    for a in range(1, amax + 1):
        for b in range(-a, a + 1):
            if (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if c < a:
                continue
            if b < 0 and (abs(b) == a or a == c):
                continue
            count += 1
    return count


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """Deterministic Tonelli-Shanks for an odd prime p; None when a is a nonresidue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = s * 2^t
    s, t = p - 1, 0
    while s % 2 == 0:
        s //= 2
        t += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c = pow(z, s, p)
    x = pow(a, (s + 1) // 2, p)
    u = pow(a, s, p)
    while u != 1:
        k, uu = 0, u
        while uu != 1:
            uu = uu * uu % p
            k += 1
        b = pow(c, 1 << (t - k - 1), p)
        x = x * b % p
        c = b * b % p
        u = u * c % p
        t = k
    return x


def _descend(D: int, M: int, root: int) -> tuple[int, int] | None:
    """Cornacchia's descent from a root of -D mod M: Euclid on (M, root) down
    to the first remainder x <= sqrt(M), then (x, y) if x^2 + D*y^2 = M has
    an integer y, else None."""
    a, b = M, root
    limit = isqrt(M)
    while b > limit:
        a, b = b, a % b
    rem = M - b * b
    if rem % D:
        return None
    y2 = rem // D
    y = isqrt(y2)
    return (b, y) if y * y == y2 else None


def _cornacchia_prime(D: int, N: int) -> tuple[int, int] | None:
    """`cornacchia` without its checks, for a caller that knows N is prime."""
    if N == 2:  # 2 = 1 + 1 = 0 + 2·1
        return {1: (1, 1), 2: (0, 1)}.get(D)
    root = _sqrt_mod_prime(-D, N)
    if root is None:
        return None
    if 2 * root < N:
        root = N - root
    return _descend(D, N, root)


def cornacchia(D: int, N: int) -> tuple[int, int] | None:
    """The solution of x^2 + D*y^2 = N for prime N, or None. Deterministic:
    descends from the root of -D in (N/2, N). BadInput unless N is prime."""
    if D <= 0 or N <= 0:
        raise BadInput("D and N must be positive")
    if not is_prime(N):
        raise BadInput(f"N={N} must be prime")
    return _cornacchia_prime(D, N)


def _unit_sqrts(u: int, ell: int, k: int) -> list[int]:
    """All y mod ell^k with y^2 ≡ u, for u prime to the prime ell and k >= 1.
    Odd ell: Tonelli-Shanks mod ell, then Newton's (Hensel's) lift, and the
    two roots ±y. ell = 2: y = 1 is lifted one bit at a time from 2^3 on,
    which reaches a root exactly when one exists (u ≡ 1 mod 8, or k <= 2),
    and the roots are those of ±y, ±y + 2^(k-1)."""
    mod = ell**k
    if ell > 2:
        y = _sqrt_mod_prime(u, ell)
        if y is None:
            return []
        while (y * y - u) % mod:
            y = (y - (y * y - u) * pow(2 * y, -1, mod)) % mod
        return [y, mod - y]
    y, half = 1, mod >> 1
    for j in range(3, k):
        if (y * y - u) >> j & 1:
            y += 1 << (j - 1)
    return list({r % mod for r in (y, -y, y + half, half - y) if (r * r - u) % mod == 0})


def _primitive_reps(D: int, M: int, exponents: dict[int, int]) -> set[tuple[int, int]]:
    """All primitive (x, y >= 0) with x^2 + D*y^2 = M = prod ell^e over
    `exponents`: Cornacchia's descent from every root of -D mod M, the roots
    joined by CRT from those mod each ell^e. For D = 1 each (x, y) also
    gives (y, x).

    When ell^2 divides D and M, ell | x, so the solutions are (ell*x, y) for
    the primitive (x, y) of D/ell^2, M/ell^2 with ell ∤ y. Past that, a
    prime ell | D leaves x ≡ 0 mod ell: the one root 0 when e = 1, and none
    when ell || D and ell^2 | M, which forces ell | y."""
    exponents = {ell: e for ell, e in exponents.items() if e}
    for ell, e in exponents.items():
        if e >= 2 and D % (ell * ell) == 0:
            inner = _primitive_reps(D // ell**2, M // ell**2, {**exponents, ell: e - 2})
            return {(ell * x, y) for x, y in inner if y % ell}
    roots, mod = [0], 1
    for ell, e in exponents.items():
        m = ell**e
        if D % ell:
            part = _unit_sqrts(-D % m, ell, e)
        else:
            part = [0] if e == 1 else []
        inv = pow(mod, -1, m)
        roots = [r + mod * ((s - r) * inv % m) for r in roots for s in part]
        mod *= m
    reps = {(1, 0)} if M == 1 else set()
    for root in roots:
        rep = _descend(D, M, root)
        if rep is not None and gcd(*rep) == 1:
            reps.add(rep)
    if D == 1:
        reps |= {(y, x) for x, y in reps}
    return reps


def represent_all(D: int, N: int, method: str = "factor") -> list[tuple[int, int]]:
    """All (x >= 0, y >= 0) with x^2 + D*y^2 = N, ascending in x.

    "factor", the default, factors N once, and for each square d^2 | N the
    primitive solutions of N/d^2 are scaled by d, with the roots of -D taken
    from that factorization. "exhaustive" is the brute scan over x, kept as
    the oracle (SearchTooLarge beyond the iteration guard).
    """
    if D <= 0 or N < 0:
        raise BadInput("need D > 0, N >= 0")
    if method not in ("factor", "exhaustive"):
        raise BadInput(f"unknown method {method!r}")
    if N == 0:
        return [(0, 0)]
    if method == "exhaustive":
        limit = isqrt(N)
        if limit > _EXHAUSTIVE_LIMIT:
            raise SearchTooLarge(f"sqrt(N) = {limit} exceeds the exhaustive guard")
        out = []
        for x in range(limit + 1):
            rem = N - x * x
            if rem % D:
                continue
            y2 = rem // D
            y = isqrt(y2)
            if y * y == y2:
                out.append((x, y))
        return out
    exponents = factor(N)
    sols = set()
    for halves in product(*(range(e // 2 + 1) for e in exponents.values())):
        d, rest = 1, {}
        for (ell, e), k in zip(exponents.items(), halves):
            d *= ell**k
            rest[ell] = e - 2 * k
        sols.update((d * x, d * y) for x, y in _primitive_reps(D, N // (d * d), rest))
    return sorted(sols)


@dataclass(frozen=True)
class QfSolution:
    D: int
    N: int
    xval: int
    yval: int


def power_representation(u: int, w: int, s: int, p: int) -> QfSolution:
    """(u + w sqrt(-p))^s = X + Y sqrt(-p) by exact recursion. Each step
    multiplies by u + w sqrt(-p), and the norm is multiplicative, so
    X^2 + p Y^2 = (u^2+p w^2)^s holds without a check."""
    if s < 1 or s % 2 == 0:
        raise EvenExponent(f"s={s} must be odd and positive")
    x, y = u, w
    for _ in range(s - 1):
        x, y = u * x - p * w * y, w * x + u * y
    return QfSolution(D=p, N=(u * u + p * w * w) ** s, xval=x, yval=y)


def stickelberger_target(p: int, q: int, R: int) -> int:
    """2(-q)^(-R) mod p, the residue that the signed C must meet."""
    return 2 * pow(pow(-q % p, R, p), -1, p) % p


def stickelberger_sign(p: int, q: int, R: int, C: int) -> int | None:
    """Which of ±C satisfies C ≡ stickelberger_target(p, q, R) mod p; None if neither."""
    target = stickelberger_target(p, q, R)
    if C % p == target:
        return 1
    if (-C) % p == target:
        return -1
    return None


@dataclass(frozen=True)
class DensityEstimate:
    D: int
    bound: int
    represented: int
    primes: int
    ratio: Fraction

    @property
    def ratio_float(self) -> float:
        return float(self.ratio)


def density_estimate(D: int, X: int) -> DensityEstimate:
    """Among primes N <= X, the fraction representable as x^2 + D*y^2."""
    if D <= 0:
        raise BadInput(f"D={D} must be positive")
    if X < 100:
        raise BoundTooSmall(f"X={X} < 100 gives meaningless ratios")
    sieve = prime_sieve(X)
    represented = 0
    primes = 0
    for N in range(2, X + 1):
        if not sieve[N]:
            continue
        primes += 1
        if _cornacchia_prime(D, N) is not None:
            represented += 1
    return DensityEstimate(
        D=D, bound=X, represented=represented, primes=primes,
        ratio=Fraction(represented, primes),
    )
