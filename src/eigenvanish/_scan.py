"""Hot kernel: the table of (k mod p, Tr(alpha^k)) counts over k < q^n - 1,
from one decimated trace sequence per coset of <q> mod p, read one
F_{q^d}^*-orbit a term.

The scan reads the field in its basis x^i: A, the matrix of multiplication
by alpha, and the trace row T_i = Tr(x^i). alpha^k has the coefficients
s_k = A^k·e_0, and Tr(alpha^k) = T·s_k as Tr is F_q-linear. Let d be the
largest proper divisor of n (d = 1 for a prime n) and N_d = (q^n-1)/(q^d-1).
Four identities cut the q^n - 1 trace terms of the full scan to N_d/p
orbits per column, in e + 1 columns of d terms:

- Cosets. k -> qk permutes the exponents mod q^n - 1, keeps traces and maps
  the residue m to qm mod p, so row m equals row qm. Only m = 0 and the least
  element of each coset of <q> in (Z/p)^* are counted.
- Decimation. The terms with k ≡ m (mod p) are t_j = Tr(alpha^m·beta^j),
  beta = alpha^p, so t_j = T·M^j·s_m with M = A^p, the matrix of beta.
- Subfield orbits. As ord_p(q) = n, p does not divide q^d - 1, so p(q^d-1)
  divides q^n - 1 and F_{q^d}^* lies in <beta>: it is generated by
  gamma = alpha^(N_d) = beta^(N_d/p), whose matrix is Γ = M^(N_d/p). So
  alpha^m·<beta> is the union of the N_d/p orbits alpha^m·beta^j·F_{q^d}^*,
  j < N_d/p. For d = 1 this is the projective step over F_q: Γ = A^N = c·I,
  c the norm of alpha.
- Traces on an orbit. Tr = Tr_{F_{q^d}/F_q} ∘ Tr_{F_{q^n}/F_{q^d}}
  (Lidl–Niederreiter, Finite Fields, Thm 2.26). If the relative trace z of
  x is 0, all q^d - 1 elements x·y of its orbit have trace 0; otherwise
  y·z runs over F_{q^d}^* and q^(d-1) - 1 of them have trace 0 and
  q^(d-1) have each nonzero trace. As gamma^i, i < d, is a basis of
  F_{q^d} and the trace form is nondegenerate, z = 0 exactly when
  Tr(gamma^i·x) = T·M^j·Γ^i·s_m is 0 for every i < d (Γ commutes with M).
  With Y_m such j among the first N_d/p, row m holds
  (q^d-1)·Y_m + (q^(d-1)-1)·(N_d/p - Y_m) at trace 0 and
  q^(d-1)·(N_d/p - Y_m) at each nonzero trace.

The premise, that gamma generates F_{q^d}^*, is checked. A^N =
Γ^((q^d-1)/(q-1)) must be c·I with c of order q - 1, which covers the primes
of q - 1. For every other prime ell of q^d - 1, Γ^((q^d-1)/(ell(q-1))) must
not be a scalar matrix, since gamma^((q^d-1)/ell) = 1 exactly when
gamma^((q^d-1)/(ell(q-1))) lies in F_q^*.

Every matrix comes from one squaring chain (`_chain`): M and the start
columns alpha^m by doubling from the squares of A; the power table, the
giant steps' states and Γ from the squares of M; the premise's powers and
the d start columns Γ^i·s_m from the squares of Γ. The zero counter
`_count_zeros` is a baby-step/giant-step count: it builds the states
M^(aB)·s of every giant step a first, then reads the B terms of a chunk of
giant steps of every column in one matmul with the power table. All
of it is float64 matrix arithmetic mod q on integers below n(q-1)^2, exact
while that stays below 2^53, so a field with n(q-1)^2 >= 2^53 is refused.
`_scan_python`, a walk of all q^n - 1 powers alpha^k by the packed field
product, is the oracle `scan_counts` must match bit for bit. For even n
`periods.compute_period_table` needs neither: there Y_0 = 1 and Y_m = 0 for
m != 0 (`periods._semiprimitive_rows`), so it runs `scan_counts` for odd n
only, and `_scan_python` for every n when its `backend` is "python".

numpy is imported inside the functions that use it, so it loads only when a
scan runs; importing the package, or a command that never scans, leaves it out.
"""

from .errors import FieldTooLarge, InternalInvariant
from ._nt import factor
from .ffield import _Kronecker

_BLOCK = 1 << 10
_PRODUCT = 1 << 15


def _mod(y, q):
    """y mod q in place, for a float64 array of integers 0 <= y < 2^53."""
    import numpy as np

    y -= q * np.floor(y / q)
    return y


def _chain(a, q, steps: int, exponents=(), block=None, grow: int = 0):
    """`steps` steps of one squaring chain of the n×n float64 matrix a over
    F_q. Returns the squares a^(2^k), k < steps; a^E for each exponent
    1 <= E < 2^steps; and `block` (n rows, or None) after `grow` <= steps
    doublings X -> [X, a^(2^k)·X], so that its i-th slice of the starting
    width is a^i·block for i < 2^grow.

    Step k multiplies by s = a^(2^k), in one matmul and one `_mod`, every
    operand that needs it: s itself when a later step reads s^2, the block
    while k < grow, and each power whose exponent has bit k set (at the
    lowest such bit the power is s itself, no product)."""
    import numpy as np

    n = len(a)
    squares, powers = [a], [None] * len(exponents)
    for k in range(steps):
        s, square, grows = squares[k], k + 1 < steps, k < grow
        ops = [s] if square else []
        if grows:
            ops.append(block)
        acc = []
        for i, e in enumerate(exponents):
            if e >> k & 1:
                if powers[i] is None:
                    powers[i] = s
                else:
                    ops.append(powers[i])
                    acc.append(i)
        if not ops:
            continue
        y = _mod(s @ (ops[0] if len(ops) == 1 else np.concatenate(ops, axis=1)), q)
        c = 0
        if square:
            squares.append(y[:, :n])
            c = n
        if grows:
            w = block.shape[1]
            block = np.concatenate((block, y[:, c : c + w]), axis=1)
            c += w
        for i in acc:
            powers[i] = y[:, c : c + n]
            c += n
    return squares, powers, block


def _count_zeros(squares, trace, states, total, q, joint=1):
    """Zeros among the terms trace·M^j·s, j < `total`, for each column s of
    `states`, M an n×n matrix and `trace` a row of n, all over F_q.
    `squares` is the list M, M^2, M^4, ... of M's squarings from `_chain`,
    holding every M^(2^k) with 2^k < total. With `joint` = d > 1 the columns
    are d blocks of R, [S, Γ·S, ..., Γ^(d-1)·S], and entry c of the result
    counts the j at which the terms of column c of every block all vanish.

    Baby steps and giant steps. Row i of the power table U is trace·M^i,
    i < B, filled by doubling, U[h:2h] = U[:h] @ M^h; its height B is the
    greatest power of two up to min(_BLOCK, total). Giant step a holds the
    states S_a = M^(aB)·S, a < ceil(total/B), all built before any count by
    doubling, S_(a+2^k) = M^(B·2^k)·S_a for 2^k < ceil(total/B): then
    B·2^k < total, so M^(B·2^k) is a square of M's chain, and each doubling
    is one matmul. S_a^T @ U^T holds the terms aB .. aB+B-1 of every column,
    one column's terms to a row. One matmul takes a chunk of giant steps,
    at most _PRODUCT terms but at least one giant step, into one buffer
    that the zero test reuses in place; the terms past `total`, in the last
    giant step, are masked.

    _BLOCK = 1,024 rows and _PRODUCT = 2^15 terms (256 KB of float64) keep
    the table and the product in cache: BLAS repacks its operand on every
    call, so one product per giant step costs more than the multiply-adds,
    and a single product of the whole scan spends more on its zero test,
    on a result far larger than the cache, than it saves (Goto and van de
    Geijn, "Anatomy of High-Performance Matrix Multiplication", ACM TOMS 34,
    2008).

    Every product is a float64 matmul, and it is exact. Each entry is an
    integer dot product of n terms below q, so it lies below n(q-1)^2 < 2^53
    (the bound `scan_counts` checks), and so does every partial sum: dgemm
    rounds nothing, in any summation order, with or without FMA. For an
    integer 0 <= y < 2^53, fl(y/q) lies within (y/q)·2^-53 < 1/q of y/q, so
    floor(fl(y/q)) = floor(y/q), which makes y - q·floor(y/q) the exact
    residue, and fl(y/q) is an integer exactly when q divides y.
    """
    import numpy as np

    height = 1 << min(_BLOCK, total).bit_length() - 1
    top = height.bit_length()  # the table reads M^(2^k), k < top - 1
    u = np.empty((height, len(trace)))
    u[0] = trace
    for k in range(top - 1):
        h = 1 << k
        _mod(np.matmul(u[:h], squares[k], out=u[h : 2 * h]), q)

    # row a·width + c is column c of S_a, transposed
    state = np.asarray(states, dtype=np.float64)
    width = state.shape[1]
    groups = width // joint  # R, the columns of one block
    steps = -(-total // height)
    giant = np.empty((steps * width, len(trace)))
    giant[:width] = state.T
    built, k = 1, top - 1
    while built < steps:  # S_(a+built) = M^(B·built)·S_a, M^(B·built) = squares[k]
        more = min(built, steps - built) * width
        out = giant[built * width : built * width + more]
        _mod(np.matmul(giant[:more], squares[k].T, out=out), q)
        built, k = built + more // width, k + 1

    chunk = min(steps, max(1, _PRODUCT // (width * height))) * width
    ratio, whole = np.empty((chunk, height)), np.empty((chunk, height))
    zero = np.empty((chunk, height), dtype=bool)
    zeros = np.zeros(groups, dtype=np.int64)
    for row in range(0, steps * width, chunk):
        rows = min(chunk, steps * width - row)
        r, w, z = ratio[:rows], whole[:rows], zero[:rows]
        np.matmul(giant[row : row + rows], u.T, out=r)  # a column's B terms to a row
        r /= q
        np.equal(r, np.floor(r, out=w), out=z)
        if row + rows == steps * width:
            z[-width:, total - (steps - 1) * height :] = False
        if joint > 1:
            z = z.reshape(-1, joint, groups, height).all(axis=1)
        zeros += z.sum(axis=-1, dtype=np.int32).reshape(-1, groups).sum(axis=0)
    return zeros


def _cosets(p: int, q: int) -> tuple[list[int], list[int]]:
    """The cosets of <q> in Z/p: their least elements in ascending order, 0
    first, and slot[m], the index in that list of m's coset's least element."""
    leaders, slot = [0], [0] + [-1] * (p - 1)
    for m in range(1, p):
        if slot[m] < 0:  # the first element of a coset met is its least
            k = m
            while slot[k] < 0:
                slot[k] = len(leaders)
                k = k * q % p
            leaders.append(m)
    return leaders, slot


def _subfield_degree(n: int) -> int:
    """d, the largest proper divisor of n (1 for a prime n or n = 1)."""
    return next((n // k for k in range(2, n) if n % k == 0), 1)


def _projective_counts(cols, trace, p: int, q: int, d: int):
    import numpy as np

    n = len(cols)
    qd = q**d - 1
    span = (q**n - 1) // qd // p  # N_d/p orbits of F_{q^d}^* per column
    leaders, slot = _cosets(p, q)

    # alpha^m for every m below 2^t > the largest coset leader, and M = A^p
    a = np.array(cols, dtype=np.float64).T  # column i is alpha·x^i
    _, (mult,), powers = _chain(a, q, p.bit_length(), [p], np.eye(n, 1), leaders[-1].bit_length())
    # M^(2^k) for 2^k <= span: the power table, the giant steps and Γ = M^span
    squares, (gamma,), _ = _chain(mult, q, span.bit_length(), [span])
    # the premise's Γ^norm = A^N and Γ^(norm/ell); the d start blocks Γ^i·S
    norm = qd // (q - 1)  # N = (q^n - 1)/(q - 1) = p·span·norm
    primes = factor(qd)
    others = [ell for ell in primes if (q - 1) % ell]  # the primes of norm alone
    exps = [norm] + [norm // ell for ell in others]
    _, (cnorm, *checks), states = _chain(
        gamma, q, max(exps).bit_length(), exps, powers[:, leaders], (d - 1).bit_length()
    )
    c = int(cnorm[0, 0])
    if not (
        np.array_equal(cnorm, c * np.eye(n))
        and c
        and all(pow(c, (q - 1) // ell, q) != 1 for ell in primes if ell not in others)
    ):
        raise InternalInvariant(f"alpha^N = {cnorm[:, 0].tolist()} does not generate F_{q}^*")
    if any(np.array_equal(x, x[0, 0] * np.eye(n)) for x in checks):
        raise InternalInvariant(
            f"alpha^N_d = {gamma[:, 0].astype(int).tolist()} does not generate F_{{{q}^{d}}}^*"
        )
    zeros = _count_zeros(squares, trace, states[:, : d * len(leaders)], span, q, d)

    y = zeros[slot]
    rows = np.empty((p, q), dtype=np.int64)
    rows[:, 0] = qd * y + (q ** (d - 1) - 1) * (span - y)
    rows[:, 1:] = (q ** (d - 1) * (span - y))[:, None]
    return rows


def require_exact(n: int, q: int) -> None:
    """Raise FieldTooLarge unless n(q-1)^2 < 2^53, the bound that keeps every
    dot product of the scan an exact float64 integer. `scan_counts` and the
    closed form of `periods.compute_period_table` refuse the same fields."""
    if n * (q - 1) ** 2 >= 1 << 53:
        raise FieldTooLarge(
            f"n(q-1)^2 = {n * (q - 1) ** 2} overflows the exact float64 integers (2^53)"
        )


def _scan_python(cols, trace, total, p, q):
    """The table of `scan_counts` for any `total`, in plain python, sharing
    none of the four identities: alpha^k walks by the packed field product,
    one a term, and Tr(alpha^k) = T·s_k is slot n - 1 of one int product of
    the packed s_k with the packed trace row reversed.

    The columns give the modulus F = X^n + sum F_i X^i: X·(alpha·X^i) is
    alpha·X^(i+1), so cols[i+1] = X·cols[i] - c·F with c = cols[i][n-1], and
    F = (X·cols[i] - cols[i+1])/c for any i with c != 0. There is one unless
    alpha is in F_q, and then any F serves. The form must give back every
    column."""
    import numpy as np

    cols, trace = [[int(c) for c in col] for col in cols], [int(t) for t in trace]
    n = len(cols)
    modulus = [0] * n
    for col, after in zip(cols, cols[1:]):
        if col[-1]:
            inv = pow(col[-1], -1, q)
            modulus = [(c - a) * inv % q for c, a in zip([0, *col[:-1]], after)]
            break
    form = _Kronecker(modulus, q)
    alpha = form.pack(cols[0])
    if any(form.unpack(form.mul(alpha, 1 << form.w * i)) != tuple(c) for i, c in enumerate(cols)):
        raise InternalInvariant("the columns are not a field element's multiplication matrix")
    row, slot, mask = form.pack(trace[::-1]), (n - 1) * form.w, form.mask
    counts, power = [[0] * q for _ in range(p)], 1
    for k in range(total):
        counts[k % p][(power * row >> slot & mask) % q] += 1
        power = form.mul(power, alpha)
    return np.array(counts, dtype=np.int64)


def scan_counts(cols, trace, total: int, p: int, q: int):
    """Histogram of (k mod p, Tr(alpha^k)) over k in [0, total), as a p×q
    int64 table, given, in a basis x^i of the field, cols[i] = the
    coefficients of alpha·x^i and trace[i] = Tr(x^i), i < n.

    The subfield-orbit scan covers the whole group: `total` must be q^n - 1
    and p(q^d - 1) must divide it, d the largest proper divisor of n, and
    n(q-1)^2 < 2^53 must bound its dot products, so that float64 holds them
    exactly. `_scan_python` is its oracle, for any `total`.
    """
    n = len(cols)
    d = _subfield_degree(n)
    if total != q**n - 1 or total % (p * (q**d - 1)):
        raise ValueError(
            f"the subfield scan needs total = q^n - 1 divisible by p(q^d - 1) with d = {d}, "
            f"so that F_{{q^d}}^* lies in <alpha^p>; got total = {total}, p = {p}"
        )
    require_exact(n, q)
    return _projective_counts(cols, trace, p, q, d)
