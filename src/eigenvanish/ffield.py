"""Exact arithmetic in F_{q^n} with canonical, reproducible generators.

Elements are coefficient tuples of length n over F_q (little-endian: index i
holds the coefficient of x^i). The modulus is the lexicographically least
monic irreducible polynomial of degree n, "lexicographic" meaning the base-q
little-endian integer encoding of the non-leading coefficients. The generator
alpha is the lexicographically least primitive element under the same
encoding, certified primitive against the full factorization of q^n - 1, and
zeta = alpha^f is the canonical p-th root of unity.

The modulus search goes up in encoding order and runs Ben-Or's
irreducibility test only on a candidate that is the least of its
F_q^*-scaling orbit (`_orbit_leaders`): the others are reducible, because a
smaller member of their orbit was rejected before them. The test looks for
the roots 0, 1 and -1 before it builds a packed form, then takes one gcd per
doubling window of degrees (`_irreducible_form`), so it rejects a reducible
candidate at the end of the window that holds its smallest factor degree;
the Frobenius chain x^(q^d), d <= n/2, that it computes stays on the form
that the field keeps (`_Kronecker.conjugate`). A linear element's powers, which
decide primitivity and give zeta = alpha^f, are taken by base-q digits over
its Frobenius conjugates (`_Kronecker.conjugate_pow`); the generator search
takes them once per monic associate X + c0/c1 of its linear candidates,
since a scalar c1 in F_q^* changes only the norm (`build_field`). Field
arithmetic is private: `_Kronecker` alone stores residues and polynomials
(packed ints, one slot per coefficient) and subtracts, multiplies and takes
gcds of them. A product is one integer multiplication, reduced by Barrett's
method on the modulus's shape F = X^n + L: floor(X^(2n-2)/F) is
X^(n-2) + M with deg M < deg L, so the two more integer products are by M
and by -L, short for the canonical moduli, whose tails have low degree;
multiply-and-shift folds take all slots mod q at once, and a difference and
each Euclid step are the same fold. The verdict that accepts the generator
has taken zeta = alpha^f, so zeta costs no power of its own. `FieldContext`
is data (coefficient tuples, trace data, and the packed form that the search
built, kept out of equality and repr); the discrete-log table of <zeta> is
keyed by packed residues. All of it is exact, so the choices above do not
depend on it.

Primality, factoring and the cyclotomic values Phi_d(q) come from the
private `_nt` module, so building a field loads neither sympy nor numpy.
"""

from functools import cached_property, partial
from math import gcd

from ._nt import cyclotomic_value, factor, is_prime
from .errors import (
    BadInput,
    FactorizationFailure,
    FieldTooLarge,
    InternalInvariant,
    NotCoprime,
    NotInSubgroup,
)

# Defaults of the certificate search (`certify`) and of the CLI options that
# feed it: the largest field size q^n whose elements a witness may enumerate,
# and the largest witness prime q to try.
DEFAULT_FIELD_CAP = 1 << 27
DEFAULT_QBOUND = 10_000

# Primitivity certification refuses composite cofactors above this size; at
# supported field sizes the cyclotomic split keeps pieces far below it.
_FACTOR_DIGIT_LIMIT = 80
_NOT_MONIC = "modulus {} does not encode a monic polynomial of degree {}"


def multiplicative_order(a: int, m: int) -> int:
    """Least t >= 1 with a^t = 1 mod m."""
    if m < 2:
        raise BadInput(f"modulus {m} < 2")
    a %= m
    if gcd(a, m) != 1:
        raise NotCoprime(f"gcd({a}, {m}) != 1")
    phi = 1
    for prime, mult in factor(m).items():
        phi *= (prime - 1) * prime ** (mult - 1)
    for prime in factor(phi):  # a^phi ≡ 1: strip each of phi's primes in turn
        while phi % prime == 0 and pow(a, phi // prime, m) == 1:
            phi //= prime
    return phi


class _Record:
    """A frozen record: `_fields` names the attributes, in order, that make its
    ==, hash and repr, as a frozen dataclass's would (equal only to a record
    of the same class). The field layer writes it out instead of importing
    `dataclasses`, which loads `inspect` on every cold start. The constructor
    fills `__dict__`, so `cached_property` still caches in it, and copies and
    pickles restore it."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CyclotomicSetup(_Record):
    """The (p, q) frame: orders, cofactor f = (q^n - 1)/p, primitive root g."""

    _fields = ("p", "q", "n", "e", "f", "g")

    def __init__(self, p: int, q: int, n: int, e: int, f: int, g: int):
        vars(self).update(p=p, q=q, n=n, e=e, f=f, g=g)

    @classmethod
    def create(cls, p: int, q: int, g: int | None = None) -> "CyclotomicSetup":
        if p <= 3 or not is_prime(p):
            raise BadInput(f"p={p} must be an odd prime > 3")
        if not is_prime(q) or q == p:
            raise BadInput(f"q={q} must be a prime distinct from p")
        if q % p == 1:
            raise BadInput(f"q={q} is 1 mod p={p}; the order n would be 1")
        # n >= 2 is the least order, n | p - 1, and p(q - 1) | q^n - 1 as
        # p | q^n - 1 with gcd(p, q - 1) = 1
        n = multiplicative_order(q, p)
        e = (p - 1) // n
        f = (q**n - 1) // p
        check_primitive_root(p, g)
        if g is None:
            g = least_primitive_root(p)
        return cls(p=p, q=q, n=n, e=e, f=f, g=g % p)

    def field_size(self) -> int:
        return self.q**self.n


def check_primitive_root(p: int, g: int | None) -> None:
    """Raise BadInput unless g is None or a primitive root mod the prime p."""
    if g is not None and (g % p == 0 or multiplicative_order(g, p) != p - 1):
        raise BadInput(f"g={g} is not a primitive root mod {p}")


def least_primitive_root(p: int) -> int:
    """Least primitive root mod the prime p: p - 1 is factored once, and g is
    taken when g^((p-1)/ell) != 1 for every prime ell of p - 1. A composite
    p >= 4 raises NotCoprime at its least prime factor."""
    if p < 3:
        raise InternalInvariant(f"no primitive root mod {p}")
    if not is_prime(p):
        raise NotCoprime(f"gcd({min(factor(p))}, {p}) != 1")
    ells = factor(p - 1)
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // ell, p) != 1 for ell in ells))


# ---------------------------------------------------------------------------
# polynomial arithmetic mod (modulus, q)


def _int_to_coeffs(k: int, n: int, q: int) -> tuple[int, ...]:
    return tuple((k // q**i) % q for i in range(n))


def _coeffs_to_int(c, q: int) -> int:
    k = 0
    for ci in reversed(c):
        k = k * q + ci
    return k


class _Kronecker:
    """Residues mod (F, q) and polynomials of degree <= n over F_q as packed
    ints, the working form of every chain of field products and of Ben-Or's
    gcds; F is the monic x^n + sum modulus[i] x^i.

    Kronecker substitution: a residue becomes an int with one w-bit slot per
    coefficient (slot i holds the coefficient of x^i), so a single int
    product holds every convolution sum. The slot width, the masks and the
    packed F are computed once per form, and a power or a walk packs its
    operands once, multiplies packed ints only and unpacks once at the end.
    A packed residue is canonical (slots below q): in F_q exactly when < q.
    x - y folds x + (q-1)·y, whose slots are below q + (q-1)^2 < q^2 < 2^b.

    Slot bound: b is the bit length of 2nq^2. The fold divides the n + 1
    slots n ... 0 by q at once: with k = b + (bit length of q) and
    m = ceil(2^k / q), floor(x·m / 2^k) = floor(x / q) for every x < 2^b,
    since x·m / 2^k exceeds x / q by x·(mq - 2^k) / (q·2^k) < 2^b·q / (q·2^k)
    <= 1/q; and x·m < 2^(b+k). So slots of w = b + k bits never carry into
    each other, as long as every slot stays below 2^b. In `mul` the slots of
    x·y are below n(q-1)^2, and so are the slots of its high part h; the
    slots of h + (h·mu_tail >> cut) are below q + (n-2)(q-1)^2, and the low
    slots of low + t·neg_tail below 2n(q-1)^2 < 2nq^2 < 2^b. A step of
    `coprime` adds (q - c)·y, shifted, to x (slots below q), so its slots
    stay below q + (q-1)^2 < q^2 as well. Slot n is folded for `coprime`
    alone; every other fold input has no slot above n - 1, and x·m >> k
    leaves 0 there.
    """

    __slots__ = (
        "q", "n", "w", "mask", "top", "f", "neg_tail", "mu_tail", "cut", "low", "k", "m",
        "quotients", "_chain",
    )

    def __init__(self, modulus, q: int):
        n = len(modulus)
        b = (2 * n * q * q).bit_length()
        self.k = b + q.bit_length()
        self.m = -(-(1 << self.k) // q)
        w = b + self.k
        self.q, self.n, self.w, self.mask = q, n, w, (1 << w) - 1
        self.top = n * w  # the offset of slot n, F's leading 1
        self.low = (1 << self.top) - 1  # slots n-1 ... 0
        # the low w - k bits of slots n ... 0: where x·m >> k leaves x // q
        self.quotients = ((1 << self.top + w) - 1) // self.mask * ((1 << w - self.k) - 1)
        self.f = self.pack(modulus) | 1 << self.top
        # F = X^n + L: neg_tail = -L mod q, and mu_tail = M, where
        # floor(X^(2n-2) / F) = X^(n-2) + M (n >= 2; M = 0 for n = 1), for
        # `mul`. Long division from the top: slot i of the rest, c mod q, is
        # slot i - n of the quotient, and the rest gains c·(-L)·X^(i-n) (its
        # slot i is never read again); a slot c = 0 adds nothing
        self.neg_tail = self.pack([-c % q for c in modulus])
        self.cut = max(n - 2, 0) * w  # the offset of slot n - 2, 0 for n = 1
        rest, mu = 1 << (2 * n - 2) * w, 0
        for shift in range(self.top - 2 * w, -1, -w):
            if c := ((rest >> self.top + shift) & self.mask) % q:
                rest += c * self.neg_tail << shift
                mu |= c << shift
        self.mu_tail = mu & (1 << self.cut) - 1  # X^(n-2)'s 1 dropped
        self._chain = [1 << w]  # x^(q^j) for j < len(_chain), packed: x itself first

    def pack(self, a) -> int:
        w, packed = self.w, 0
        for c in reversed(a):
            packed = packed << w | c
        return packed

    def unpack(self, x: int) -> tuple[int, ...]:
        mask = self.mask
        return tuple((x >> shift) & mask for shift in range(0, self.top, self.w))

    def mul(self, x: int, y: int) -> int:
        """Packed product of two packed residues, the one product kernel, by
        Barrett reduction (two more int products and three folds for any n).

        Write A = x·y = H·X^n + A0 over F_q, X = 2^w, deg H <= n-2, deg A0 < n,
        and X^(2n-2) = mu·F + rho with deg rho < n. Let
        Q' = floor(H·mu / X^(n-2)), that is H·mu = Q'·X^(n-2) + E with
        deg E < n-2. Then Q'·F·X^(n-2) = H·mu·F - E·F
        = H·X^(2n-2) - H·rho - E·F, and the last two terms have degree
        <= 2n-3, so Q'·F - H·X^n has degree < n, and so has A - Q'·F:
        Q' = floor(A / F) exactly, with no correction step, for any monic F,
        irreducible or not.

        The modulus's shape makes two of the products short. With
        F = X^n + L, deg L = j, X^(2n-2) = X^(n-2)·F - X^(n-2)·L, so mu is
        monic of degree n-2: mu = X^(n-2) + M, deg M <= j-2 (the form keeps
        mu_tail = M). So Q' = H + floor(H·M / X^(n-2)): t = h +
        (h·mu_tail >> cut), h = H with its slots mod q, folded. The low n
        slots of Q'·F are those of Q'·L, as Q'·X^n has none, so A - Q'·F is
        the low n slots of A + t·neg_tail (neg_tail = -L mod q), each taken
        mod q by the fold. For the canonical moduli j is small, and mu_tail
        and neg_tail are ints of at most j + 1 slots; for a dense F they are
        full length. No slot carries (see the slot bound).
        """
        q, m, k, quotients = self.q, self.m, self.k, self.quotients
        prod = x * y
        h = prod >> self.top
        h -= q * ((h * m >> k) & quotients)
        t = h + (h * self.mu_tail >> self.cut)
        t -= q * ((t * m >> k) & quotients)
        low = (prod & self.low) + (t * self.neg_tail & self.low)
        return low - q * ((low * m >> k) & quotients)

    def sub(self, x: int, y: int) -> int:
        """Packed x - y, folded from x + (q-1)·y (see the slot bound)."""
        return self._fold(x + (self.q - 1) * y)

    def _fold(self, low: int) -> int:  # each of the slots n ... 0 mod q, for slots < 2^b
        return low - self.q * ((low * self.m >> self.k) & self.quotients)

    def coprime(self, x: int, y: int) -> bool:
        """Whether gcd(x, y) = 1 over F_q (gcd(0, 0) = 0 is not), for packed
        polynomials of degree <= n, by Euclid: a degree is the top nonzero
        slot, (bit length - 1) // w (-1 for 0); each step adds (q - c)·y,
        shifted, to cancel x's top slot c·lead(y), and folds (slot bound)."""
        q, w = self.q, self.w
        while y:
            dy = (y.bit_length() - 1) // w
            inv = pow(y >> dy * w, -1, q)
            while (dx := (x.bit_length() - 1) // w) >= dy:
                c = (x >> dx * w) * inv % q
                x = self._fold(x + ((q - c) * y << (dx - dy) * w))
            x, y = y, x
        return 0 < x < q

    def pow(self, x: int, exponent: int) -> int:
        """x^exponent by left-to-right binary powering: one squaring per bit
        below the top one, and one product by x per further set bit."""
        if not exponent:
            return 1
        result = x
        for bit in bin(exponent)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, x)
        return result

    def conjugate(self, j: int) -> int:
        """x^(q^j), packed, for 0 <= j < n (n >= 2), from the Frobenius chain
        that the form keeps: Ben-Or's test takes its first half, j <= n/2,
        and `_powers` the rest. A missing link x^(q^i) is the monomial
        itself while q^i < n, so no product is taken for it, and the q-th
        power of the link before otherwise."""
        q, n, chain = self.q, self.n, self._chain
        while (i := len(chain)) <= j:
            if i < n.bit_length() and q**i < n:  # q^i < n needs i < log2(n)
                chain.append(1 << q**i * self.w)
            else:
                chain.append(self.pow(chain[-1], q))
        return chain[j]

    def conjugate_pow(self, conjugates, exponent: int) -> int:
        """y^exponent for 0 <= exponent < q^n, given conjugates[j] = y^(q^j),
        j < n, packed.

        With exponent = sum_j e_j q^j in base q, y^exponent = prod_j
        (y^(q^j))^(e_j), and the n powers share their squarings (Straus): one
        squaring per bit of the largest digit below its top bit, one product
        per further set bit of the digits. Binary powering squares once per
        bit of the exponent, n times as many. A squaring of 1 and a product
        by 1 are skipped, which changes no result.
        """
        q, digits = self.q, []
        while exponent:
            exponent, digit = divmod(exponent, q)
            digits.append(digit)
        result = 1
        for bit in reversed(range(max(digits, default=0).bit_length())):
            if result != 1:
                result = self.mul(result, result)
            for conjugate, digit in zip(conjugates, digits):
                if digit >> bit & 1:
                    result = conjugate if result == 1 else self.mul(result, conjugate)
        return result


def _irreducible_form(coeffs, q: int) -> _Kronecker | None:
    """The packed form of the monic f = x^n + sum coeffs[i] x^i if f is
    irreducible, with the first half of its Frobenius chain, x^(q^d) for
    d <= n/2, left on it; None if f is reducible. Ben-Or's test, in doubling
    windows of degrees.

    f is reducible exactly when it has an irreducible factor g of degree
    d <= n/2, that is when gcd(f, x^(q^d) - x) != 1 for some d <= n/2. A
    root in F_q comes first, with no form: f(0) = c_0, f(1) and f(-1) from
    coefficient sums. For q <= 3 these are all of F_q, so they decide d = 1.
    Then one gcd per window of degrees: d = 1, then (2^k, 2^(k+1)] for
    k = 0, 1, ..., the last cut at n/2, taken on the product mod f of the
    x^(q^d) - x over the window, one packed product per term after the
    first. The windows' verdicts are Ben-Or's: an irreducible g | f divides
    that product exactly when it divides one of its terms, and g | f divides
    x^(q^d) - x exactly when deg g | d. A product that is 0 mod f has gcd f
    and is rejected. So a reducible f is rejected at the end of the window
    that holds the degree of its smallest factor, and an irreducible f of
    degree n takes at most ceil(log2(n/2)) + 1 gcds.
    """
    n = len(coeffs)
    if n == 1:
        return _Kronecker(coeffs, q)
    even, odd = sum(coeffs[::2]), sum(coeffs[1::2])
    if coeffs[0] == 0 or (1 + even + odd) % q == 0 or ((-1) ** n + even - odd) % q == 0:
        return None  # f(0), f(1) or f(-1) is 0
    form = _Kronecker(coeffs, q)
    x, half, product = form.conjugate(0), n // 2, 1
    for d in range(1 if q > 3 else 2, half + 1):
        term = form.sub(form.conjugate(d), x)
        product = term if product == 1 else form.mul(product, term)
        if d & (d - 1) == 0 or d == half:  # the end of a window
            if not form.coprime(form.f, product):
                return None
            product = 1
    return form


def _orbit_leaders(q: int, n: int):
    """Every monic f = x^n + sum c_i x^i over F_q that is the least member of
    its F_q^*-scaling orbit, as (c_0, ..., c_(n-1)), in encoding order, with
    no work proportional to q.

    f_lam = lam^(-n)·f(lam·x), lam in F_q^*, has the coefficients
    c_i·lam^(i-n) and the factor degrees of f, since x -> lam·x is a ring
    automorphism of F_q[x]. x^n is its own orbit, and comes first. Otherwise
    let j be the top index below n with c_j != 0, t = n - j,
    d = gcd(t, q - 1) and e = (q - 1)/d. The f with top index j are the
    encodings in [q^j, q^(j+1)), in order of c_j, then of the tail
    (c_(j-1), ..., c_0), and every f_lam has the same top index. So the least
    member has the least top coefficient c_j·lam^(-t); the t-th powers are
    the d-th powers, the subgroup of order e, so those top coefficients are
    the u with u^e = c_j^e, and c_j must be the least of its coset: the u
    that give a new value u^e, until all d values are met. The lam that keep
    c_j are those with lam^t = 1, that is lam^d = 1: the d-th roots of unity,
    the values u^e, a group, so lam^(-1) runs over them too. For such a lam,
    c_i·lam^(i-n) = c_i·lam^(i-j), and the tail scaled to (c_(j-1)·lam, ...,
    c_0·lam^j) must not be less than the tail.
    """
    yield (0,) * n
    for j in range(n):
        d = gcd(n - j, q - 1)
        e = (q - 1) // d
        roots, u = {1}, 2
        while len(roots) < d:  # the d <= n d-th roots of unity
            roots.add(pow(u, e, q))
            u += 1
        scales = [[pow(lam, i, q) for i in range(1, j + 1)] for lam in roots - {1}]
        weights = [q**i for i in reversed(range(j))]
        cosets = set()
        for top in range(1, q):
            if len(cosets) == d:
                break  # at the least member of the last coset met, far below q
            if (coset := pow(top, e, q)) in cosets:
                continue  # a smaller top coefficient lies in its coset
            cosets.add(coset)
            high = (top,) + (0,) * (n - 1 - j)
            for rest in range(q**j):
                tail = tuple(rest // weight % q for weight in weights)  # c_(j-1), ..., c_0
                if all(tuple(c * s % q for c, s in zip(tail, lam)) >= tail for lam in scales):
                    yield tail[::-1] + high


def _least_irreducible_form(q: int, n: int) -> tuple[tuple[int, ...], _Kronecker]:
    """The lexicographically least monic irreducible polynomial of degree n
    over F_q, as its non-leading coefficients, and its packed form from
    Ben-Or's test (`_irreducible_form`).

    The test runs only on the orbit leaders, in encoding order. That skips
    no irreducible polynomial: a skipped f has a smaller member g of its
    orbit, whose leader the search met and rejected first, and f has the
    factor degrees of g.
    """
    for cand in _orbit_leaders(q, n):
        if (form := _irreducible_form(cand, q)) is not None:
            return cand, form
    raise InternalInvariant("no irreducible polynomial found")


def _decimal_digits(m: int) -> int:
    """The number of decimal digits of m >= 1, without str(m), which CPython
    refuses past 4,300 digits. The count starts at most at the answer, since
    3/10 < log10(2)."""
    digits = m.bit_length() * 3 // 10
    while 10**digits <= m:
        digits += 1
    return digits


def _group_order_primes(q: int, n: int) -> list[int]:
    """Prime factors of q^n - 1, split along cyclotomic polynomial values.
    Every piece's size is checked before any piece is factored."""
    pieces = [cyclotomic_value(d, q) for d in range(1, n + 1) if n % d == 0]
    for piece in pieces:
        if piece >= 10**_FACTOR_DIGIT_LIMIT and not is_prime(piece):
            raise FactorizationFailure(
                f"cofactor of q^n - 1 too large to certify primitivity "
                f"({_decimal_digits(piece)} digits)"
            )
    return sorted({prime for piece in pieces for prime in factor(piece)})


class FieldContext(_Record):
    """Canonical F_{q^n} and its trace data; `modulus` holds the non-leading
    coefficients of the monic modulus. Its arithmetic is the private
    `kronecker`, the packed form that built the field, and `p` is the prime
    whose primitive root of unity `zeta` is; ==, hash and repr leave both
    out, so one field compares equal whichever p it was built for."""

    _fields = ("q", "n", "modulus", "alpha", "zeta")

    def __init__(self, q: int, n: int, modulus: tuple[int, ...], alpha: tuple[int, ...],
                 zeta: tuple[int, ...], kronecker: _Kronecker, *, p: int):
        vars(self).update(
            q=q, n=n, modulus=modulus, alpha=alpha, zeta=zeta, kronecker=kronecker, p=p
        )

    @cached_property
    def basis_traces(self) -> tuple[int, ...]:
        """Tr(x^i) for i < n, computed on first use: only the trace scans and
        the setup report read it, the unit index never does."""
        return _power_sums(self.modulus, self.q)

    @property
    def order(self) -> int:
        return self.q**self.n - 1

    def encode(self, x) -> int:
        """Element as a base-q integer (little-endian coefficients)."""
        return _coeffs_to_int(x, self.q)

    @property
    def modulus_int(self) -> int:
        """The monic modulus as a base-q integer, leading term included."""
        return _coeffs_to_int(self.modulus, self.q) + self.q**self.n


def build_field(setup: CyclotomicSetup, cap: int | None = None) -> FieldContext:
    """Construct the canonical F_{q^n} for `setup`.

    `cap` bounds the field size for element-enumeration work (the period
    scan); index-only callers pass None, since building the context costs
    polynomial time in n and log q regardless of q^n.

    The generator search (`_least_primitive`) decides primitivity once per
    monic associate. A linear candidate c1·X + c0 is c1·(X + t) with
    t = c0/c1. For a prime ell of q^n - 1 with ell ∤ q - 1, ell divides
    N = (q^n-1)/(q-1), so (q^n-1)/ell = (q-1)·(N/ell) and
    c^((q^n-1)/ell) = (c^(q-1))^(N/ell) = 1 for every c in F_q^*: c1·(X + t)
    passes ell exactly when X + t does. For ell | q - 1 the test reads the
    norm, and Nm(c1·(X + t)) = c1^n·Nm(X + t), as Nm is multiplicative and
    Nm(c) = c^n for c in F_q. So per t the search keeps Nm(X + t), from
    `_norm` when t is first met, and the verdict for the primes ell ∤ q - 1,
    from `_powers` when a candidate with that t first passes its norm test;
    every other candidate costs int powers mod q only. Both records live in
    one call. Non-linear candidates go through `_is_primitive`.

    Every verdict that accepts alpha has taken alpha^((q^n-1)/ell) for each
    prime ell ∤ q - 1 of q^n - 1, and p is one of them (p | q^n - 1, and
    p ∤ q - 1 as n >= 2), with (q^n-1)/p = f: so zeta = alpha^f comes from
    the verdict, c1^f·(X + t)^f for a linear alpha, with no further power.
    """
    q, n = setup.q, setup.n
    size = q**n
    if cap is not None and size > cap:
        raise FieldTooLarge(f"q^n = {size} exceeds cap {cap}")
    factors = _group_order_primes(q, n)  # refuses an uncertifiable q^n - 1 first

    modulus, form = _least_irreducible_form(q, n)
    alpha, zeta = _least_primitive(form, factors, setup.f)
    return _field_context(setup, form, modulus, alpha, zeta)


def _least_primitive(form: _Kronecker, primes, exponent: int) -> tuple[tuple[int, ...], int]:
    """The lexicographically least primitive element alpha of F_{q^n},
    n >= 2, and alpha^exponent packed, given its packed form and the primes
    of q^n - 1: the linear candidates as (c1, c0) in encoding order, with one
    norm and one field-power verdict per t = c0/c1 (see `build_field`), then
    the rest by `_is_primitive`. For alpha = c1·(X + t), alpha^exponent =
    c1^exponent·(X + t)^exponent, and `_verdict` takes the power of X + t.
    Constants are never primitive for n >= 2."""
    q, n = form.q, form.n
    order = q**n - 1
    small = [(q - 1) // ell for ell in primes if (q - 1) % ell == 0]
    large = [order // ell for ell in primes if (q - 1) % ell]
    pad = (0,) * (n - 2)
    # t -> Nm(X + t); t -> (X + t)^exponent if X + t passes every ell ∤ q - 1, else None
    norms, verdicts = {}, {}
    for c1 in range(1, q):
        scale, inverse = pow(c1, n, q), pow(c1, -1, q)
        for c0 in range(q):
            t = c0 * inverse % q
            if t not in norms:
                norms[t] = _norm((t, 1) + pad, form)
            norm = scale * norms[t] % q
            if any(pow(norm, e, q) == 1 for e in small):
                continue
            if t not in verdicts:
                verdicts[t] = _verdict(_powers((t, 1) + pad, form), large, exponent)
            if verdicts[t] is not None:
                return (c0, c1) + pad, form._fold(pow(c1, exponent, q) * verdicts[t])
    for k in range(q * q, q**n):
        cand = _int_to_coeffs(k, n, q)
        if (power := _is_primitive(cand, form, primes, exponent)) is not None:
            return cand, power
    raise InternalInvariant("no primitive element found")


def field_from_choice(setup: CyclotomicSetup, modulus: int, generator: int) -> FieldContext:
    """The F_{q^n} that a certificate names by the encodings of its monic
    modulus and its generator, checked instead of searched for: the modulus
    must be monic of degree n and irreducible (one Ben-Or test, whose packed
    form the field keeps), the generator a primitive element by
    `_is_primitive`, the search's own rule: the primes of q^n - 1 that divide
    q - 1 are tested on its norm in F_q (a Horner evaluation of the modulus
    for a linear generator, one field power otherwise), every other prime by
    a field power. Whether they are the lexicographically least choices is
    not checked. zeta comes from the verdict, as in `build_field`."""
    q, n = setup.q, setup.n
    size = q**n
    if not size <= modulus < 2 * size:
        raise BadInput(_NOT_MONIC.format(modulus, n))
    if not 0 < generator < size:
        raise BadInput(f"generator {generator} does not encode a nonzero element of F_{size}")
    coeffs = _int_to_coeffs(modulus - size, n, q)
    form = _irreducible_form(coeffs, q)
    if form is None:
        raise BadInput(f"modulus {modulus} is reducible over F_{q}")
    alpha = _int_to_coeffs(generator, n, q)
    zeta = _is_primitive(alpha, form, _group_order_primes(q, n), setup.f)
    if zeta is None:
        raise BadInput(f"generator {generator} is not a primitive element")
    return _field_context(setup, form, coeffs, alpha, zeta)


def check_modulus_length(q: int, n: int, modulus: int) -> None:
    """Refuse, from bit lengths alone, a modulus below 2^(n(b-1)) <= q^n (b the
    bit length of q): it cannot encode a monic polynomial of degree n over F_q."""
    if modulus.bit_length() <= n * (q.bit_length() - 1):
        raise BadInput(_NOT_MONIC.format(modulus, n))


def check_field_of(ctx: FieldContext, setup: CyclotomicSetup) -> None:
    """Raise BadInput unless ctx is the field F_{q^n} of setup's q and n, built
    for setup's p: its zeta is a primitive p-th root of unity for that p only."""
    if (ctx.q, ctx.n) != (setup.q, setup.n):
        raise BadInput(
            f"ctx is F_{{{ctx.q}^{ctx.n}}}, but p = {setup.p} needs F_{{{setup.q}^{setup.n}}}"
        )
    if ctx.p != setup.p:
        raise BadInput(f"ctx is F_{{{ctx.q}^{ctx.n}}} built for p = {ctx.p}, not p = {setup.p}")


def _is_primitive(x, form: _Kronecker, primes, exponent: int) -> int | None:
    """x^exponent, packed, if the nonzero residue x generates F_{q^n}^*, None
    if not, given the packed form of F_{q^n} and the primes of q^n - 1:
    x generates it when x^((q^n-1)/ell) != 1 for each.

    For ell | q - 1 that power is Nm(x)^((q-1)/ell), a power in F_q, since
    (q^n-1)/ell = N·(q-1)/ell with N = (q^n-1)/(q-1) and Nm(x) = x^N. So
    the norm is taken once by `_norm` (for a linear x = c1·X + c0 the Horner
    value (-c1)^n·F(-c0/c1) of the monic modulus F, with no field product;
    one packed power x^N otherwise) and those primes are tested with int
    powers mod q before any field power. Only the primes that do not divide
    q - 1 take field powers, by `_powers`: (q^n-1)/ell < q^n, and the
    Frobenius sigma(y) = y^q fixes F_q, so a linear x has the conjugates
    sigma^j(x) = c1·X^(q^j) + c0, from which `conjugate_pow` takes the power
    by its base-q digits; any other x is powered by its binary digits.

    The generator search applies this rule to a linear candidate through its
    monic associate X + c0/c1 (proof in `build_field`): the norm scaled by
    c1^n, and the field-power verdict of X + c0/c1, taken once per search.
    `field_from_choice` and the search's non-linear candidates call this;
    both ask for zeta's exponent f, which the verdict has taken."""
    q = form.q
    order = q**form.n - 1
    small = [ell for ell in primes if (q - 1) % ell == 0]
    if small:
        norm = _norm(x, form)
        if any(pow(norm, (q - 1) // ell, q) == 1 for ell in small):
            return None
    large = [order // ell for ell in primes if ell not in small]
    return _verdict(_powers(x, form), large, exponent)


def _verdict(power, exponents, exponent: int) -> int | None:
    """power(exponent) if power(e) != 1 for every e in `exponents`, else None,
    for power(E) = y^E: the field-power verdict on y. An exponent among
    `exponents` is read from the verdict, with no further power."""
    taken = {}
    for e in exponents:
        if (y := power(e)) == 1:
            return None
        taken[e] = y
    return taken[exponent] if exponent in taken else power(exponent)


def _is_linear(x) -> bool:
    return len(x) > 1 and x[1] != 0 and not any(x[2:])


def _powers(x, form: _Kronecker):
    """E -> x^E packed, for E < q^n: by base-q digits over the conjugates
    c1·X^(q^j) + c0 for a linear x = c1·X + c0 (`_Kronecker.conjugate_pow`),
    by binary powering (`_Kronecker.pow`) for any other x."""
    if _is_linear(x):
        c0, c1 = x[0], x[1]
        conjugates = [form._fold(c1 * form.conjugate(j) + c0) for j in range(form.n)]
        return partial(form.conjugate_pow, conjugates)
    return partial(form.pow, form.pack(x))


def _norm(x, form: _Kronecker) -> int:
    """Nm(x) = x^N in F_q, N = (q^n-1)/(q-1). For x = c1·X + c0, c1 != 0, it
    is the product of c1·theta + c0 over the roots theta of the modulus F,
    (-c1)^n·F(-c0/c1) by Horner; any other x takes one packed power."""
    q, n = form.q, form.n
    if _is_linear(x):
        root = -x[0] * pow(x[1], -1, q) % q
        value = 1  # F is monic: Horner from its leading 1 down
        for c in reversed(form.unpack(form.f)):
            value = (value * root + c) % q
        return pow(-x[1], n, q) * value % q
    return form.pow(form.pack(x), (q**n - 1) // (q - 1))  # in F_q: packed as itself


def _field_context(setup: CyclotomicSetup, form: _Kronecker, modulus, alpha,
                   zeta: int) -> FieldContext:
    """The context of alpha mod `modulus`, whose packed form is `form`, with
    zeta = alpha^f packed. alpha is primitive, so zeta has order
    (q^n - 1)/f = p exactly."""
    return FieldContext(
        q=setup.q, n=setup.n, modulus=modulus, alpha=alpha, zeta=form.unpack(zeta),
        kronecker=form, p=setup.p,
    )


def _power_sums(coeffs, q: int) -> tuple[int, ...]:
    """s_k mod q for k < n: the k-th power sums of the roots of the monic
    x^n + sum coeffs[i] x^i, by Newton's identities: s_0 = n and
    s_k = -(k·c_{n-k} + sum_{j=1}^{k-1} c_{n-j}·s_{k-j}). For an irreducible
    polynomial the roots are the Frobenius conjugates of x, so s_k = Tr(x^k)."""
    n = len(coeffs)
    sums = [n % q]
    for k in range(1, n):
        s = k * coeffs[n - k] + sum(coeffs[n - j] * sums[k - j] for j in range(1, k))
        sums.append(-s % q)
    return tuple(sums)


def dlog_order_p(ctx: FieldContext, p: int) -> dict[int, int]:
    """The discrete-log table of the order-p subgroup <zeta>: {packed zeta^k: k}
    for k < p, in order of k, from one walk of p - 1 packed products. A packed
    residue is canonical (every slot below q), so a packed target looks up its
    log. Raises NotInSubgroup unless the walk first returns to 1 at k = p."""
    form = ctx.kronecker
    zeta = form.pack(ctx.zeta)
    logs, z = {1: 0}, zeta
    for k in range(1, p):
        logs[z] = k
        z = form.mul(z, zeta)
    if len(logs) < p or z != 1:  # z = zeta^p; a repeated power overwrote a key
        raise NotInSubgroup("zeta is not a primitive p-th root of unity")
    return logs


def generator_recurrence(ctx: FieldContext) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(cols, trace), the trace-sequence scan's data in the field's basis x^i:
    cols[i], the coefficients of alpha·x^i, is column i of the matrix A of
    multiplication by alpha (n packed products), and trace = ctx.basis_traces.
    The coefficients s_k of alpha^k follow s_{k+1} = A·s_k from s_0 = e_0,
    and Tr(alpha^k) = sum_i trace[i]·s_k[i] mod q, as Tr is F_q-linear."""
    form = ctx.kronecker
    alpha = form.pack(ctx.alpha)
    cols = tuple(form.unpack(form.mul(alpha, 1 << form.w * i)) for i in range(ctx.n))
    return cols, ctx.basis_traces
