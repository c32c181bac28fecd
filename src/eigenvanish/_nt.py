"""Exact elementary number theory, small enough to keep sympy off the import path.

- `is_prime`: trial division by the first 13 primes, then Miller-Rabin to
  those 13 bases. That is exact below 3,317,044,064,679,887,385,961,981, the
  least strong pseudoprime to all of them (Sorenson and Webster, "Strong
  pseudoprimes to twelve prime bases", 2017); a larger n that passes all 13
  goes to sympy.
- `factor`: trial division by the primes below 2^10, then, for what is left,
  a check for a perfect power and Pollard-Brent rho with fixed constants and
  an iteration budget, each prime found divided out in full. Every factor
  it returns has passed `is_prime`; only a cofactor that is still composite
  when the budget runs out goes to sympy.
- `prime_sieve`: one bytearray sieve, which also lists `factor`'s trial primes.
- `cyclotomic_value`: Phi_d(q) as a Moebius product of the factors q^k - 1.

Factorizations are unique, so neither route can change a result. The sympy
fallbacks are imported on first use, through `_sympy_isprime` and
`_sympy_factorint`.
"""

from math import gcd, isqrt, log2

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981
_RHO_BUDGET = 1 << 20  # rho iterations per cofactor, over all constants


def prime_sieve(limit: int) -> bytearray:
    """sieve[k] == 1 exactly when k <= limit is prime; limit >= 1."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return sieve


_TRIAL = tuple(k for k, bit in enumerate(prime_sieve(1 << 10)) if bit)


def _sympy_isprime(n: int) -> bool:
    from sympy import isprime

    return bool(isprime(n))


def _sympy_factorint(n: int) -> dict[int, int]:
    from sympy import factorint

    return {int(prime): int(mult) for prime, mult in factorint(n).items()}


def is_prime(n: int) -> bool:
    """Whether the integer n is prime; deterministic, exact for every n."""
    if n < 2:
        return False
    for prime in _BASES:
        if n % prime == 0:
            return n == prime
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # base proves n composite, at any size
    return n < _MR_EXACT_BELOW or _sympy_isprime(n)


def _rho(n: int) -> int | None:
    """A proper factor of the odd composite n by Pollard-Brent rho on
    y -> y^2 + c, c = 1, 2, ..., one gcd per step; None when the budget runs out."""
    spent, c = 0, 0
    while spent < _RHO_BUDGET:
        c += 1
        y, r, g = 2, 1, 1
        while g == 1 and spent < _RHO_BUDGET:
            x = y  # compared with the next r terms, then moved on to the last
            for _ in range(r):
                y = (y * y + c) % n
                g = gcd(x - y, n)
                if g != 1:
                    break
            spent += r
            r *= 2
        if 1 < g < n:
            return g
    return None


def _perfect_root(n: int) -> int | None:
    """r with r^k = n for a prime k, found by a float root rounded and then
    checked exactly, or None. Called only on n with no prime factor below
    2^10, so r^k = n needs n >= 2^(10k); floats round r exactly up to 2^45."""
    bits = n.bit_length()
    for k in _BASES:
        if 10 * k <= bits <= 45 * k:
            r = round(2 ** (log2(n) / k))
            if r**k == n:
                return r
    return None


def factor(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} of n >= 1, primes ascending."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for prime in _TRIAL:
        if prime * prime > n:
            break
        if n % prime == 0:
            n //= prime
            out[prime] = 1
            while n % prime == 0:
                n //= prime
                out[prime] += 1
    while n > 1:
        d = n  # shrink d to a prime factor of n, then divide it out
        while d is not None and not is_prime(d):
            d = _perfect_root(d) or _rho(d)
        if d is None:
            out.update(_sympy_factorint(n))
            break
        out[d] = 0
        while n % d == 0:
            n //= d
            out[d] += 1
    return dict(sorted(out.items()))


def cyclotomic_value(d: int, q: int) -> int:
    """Phi_d(q) for d >= 1 and q >= 2: the product of (q^k - 1)^mu(d/k) over k | d."""
    ells = list(factor(d))
    num = den = 1
    for mask in range(1 << len(ells)):  # the squarefree divisors s of d
        s, sign = 1, 1
        for i, ell in enumerate(ells):
            if mask >> i & 1:
                s, sign = s * ell, -sign
        if sign > 0:
            num *= q ** (d // s) - 1
        else:
            den *= q ** (d // s) - 1
    return num // den
