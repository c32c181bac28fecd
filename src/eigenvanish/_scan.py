"""Hot kernel: the table of (k mod p, Tr(alpha^k)) counts over k < q^n - 1,
from one decimated, projective trace sequence per coset of <q> mod p.

The scan reads the field in its basis x^i: A, the matrix of multiplication
by alpha, and the trace row T_i = Tr(x^i). alpha^k has the coefficients
s_k = A^k·e_0, and Tr(alpha^k) = T·s_k as Tr is F_q-linear. With
N = (q^n - 1)/(q - 1), three identities cut the q^n - 1 trace terms of the
full scan to N/p per column, in e + 1 columns:

- Cosets. k -> qk permutes the exponents mod q^n - 1, keeps traces and maps
  the residue m to qm mod p, so row m equals row qm. Only m = 0 and the least
  element of each coset of <q> in (Z/p)^* are counted.
- Decimation. The terms with k ≡ m (mod p) are t_j = Tr(alpha^m·beta^j),
  beta = alpha^p, so t_j = T·M^j·s_m with M = A^p, the matrix of beta.
- Projective step. p divides N, and c = alpha^N, the norm of alpha,
  generates F_q^*: A^N = c·I, so t_{j+N/p} = c·t_j. With Z_m zeros among the
  first N/p terms, row m holds (q-1)·Z_m at trace 0 and N/p - Z_m at each
  nonzero trace.

The zero counter `_count_zeros` reads a block of terms of every column per
matmul from a power table built by doubling. All of it is float64 matrix
arithmetic mod q on integers below n(q-1)^2, exact while that stays below
2^53, so a field with n(q-1)^2 >= 2^53 is refused. `_scan_python`
walks all q^n - 1 powers alpha^k by the packed field product, the oracle the
production path must match bit for bit.

numpy is imported inside the functions that use it, so it loads only when a
scan runs; importing the package, or a command that never scans, leaves it out.
"""

from .errors import FieldTooLarge, InternalInvariant
from .ffield import _Kronecker, multiplicative_order

_BLOCK = 1 << 12


def _mod(y, q):
    """y mod q in place, for a float64 array of integers 0 <= y < 2^53."""
    import numpy as np

    y -= q * np.floor(y / q)
    return y


def _count_zeros(mult, trace, states, total, q):
    """Zeros among the terms trace·M^j·s, j < `total`, for each column s of
    `states`, M = `mult` an n×n matrix and `trace` a row of n, all over F_q.

    Row j of the power table U is trace·M^j, so S^T @ U^T yields terms
    k .. k+B-1 of every column at once, one column's terms to a contiguous
    row, when S holds the columns' states M^k·s. U is filled by doubling,
    U[h:2h] = U[:h] @ M^h. Its height B is the greatest power of two up to
    min(_BLOCK, total), so the doubling's last squaring is M^B, the state
    jump S_{k+B} = M^B S_k.

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
    u = np.empty((height, len(trace)))
    u[0] = trace
    step = np.asarray(mult, dtype=np.float64)  # M^h for the h rows filled so far
    h = 1
    while h < height:
        _mod(np.matmul(u[:h], step, out=u[h : 2 * h]), q)
        step = _mod(step @ step, q)
        h *= 2

    state = np.asarray(states, dtype=np.float64)
    zeros = np.zeros(state.shape[1], dtype=np.int64)
    done = 0
    while done < total:
        cnt = min(height, total - done)
        ratio = state.T @ u[:cnt].T  # row c holds column c's terms
        ratio /= q
        zeros += np.count_nonzero(ratio == np.floor(ratio), axis=1)
        state = _mod(step @ state, q)
        done += cnt
    return zeros


def _mat_pow(a, exponent: int, q: int):
    """a^exponent mod q for a square float64 matrix, exponent >= 1."""
    result = a
    for bit in bin(exponent)[3:]:
        result = _mod(result @ result, q)
        if bit == "1":
            result = _mod(result @ a, q)
    return result


def _coset_owners(p: int, q: int) -> list[int]:
    """owner[m] is the least element of m's coset of <q> in Z/p (owner[0] = 0)."""
    owner = [0] + [-1] * (p - 1)
    for m in range(1, p):
        k = m
        while owner[k] < 0:
            owner[k] = m
            k = k * q % p
    return owner


def _projective_counts(cols, trace, p: int, q: int):
    import numpy as np

    n = len(cols)
    span = (q**n - 1) // (q - 1) // p  # N/p terms per column
    a = np.array(cols, dtype=np.float64).T  # column i is alpha·x^i
    mult = _mat_pow(a, p, q)  # M, the matrix of beta = alpha^p
    norm = _mat_pow(mult, span, q)  # A^N = c·I when alpha^N = c is in F_q
    c = int(norm[0, 0])
    if not (np.array_equal(norm, c * np.eye(n)) and c and multiplicative_order(c, q) == q - 1):
        raise InternalInvariant(f"alpha^N = {norm[:, 0].tolist()} does not generate F_{q}^*")
    owner = _coset_owners(p, q)
    reps = sorted(set(owner))
    powers = [np.eye(n, 1)]  # the coefficients of alpha^m
    for _ in range(reps[-1]):
        powers.append(_mod(a @ powers[-1], q))
    zeros = _count_zeros(mult, trace, np.hstack([powers[m] for m in reps]), span, q)

    rows = np.empty((p, q), dtype=np.int64)
    zeros_of = dict(zip(reps, zeros.tolist()))
    for m in range(p):
        rows[m, 0] = (q - 1) * zeros_of[owner[m]]
        rows[m, 1:] = span - zeros_of[owner[m]]
    return rows


def _scan_python(cols, trace, total, p, q, counts):
    """Plain-python reference used by the cross-checking tests, sharing none of
    the three identities: alpha^k walks by the packed field product, one a
    term, and Tr(alpha^k) = T·s_k is slot n - 1 of one int product of the
    packed s_k with the packed trace row reversed.

    The columns give the modulus F = X^n + sum F_i X^i: X·(alpha·X^i) is
    alpha·X^(i+1), so cols[i+1] = X·cols[i] - c·F with c = cols[i][n-1], and
    F = (X·cols[i] - cols[i+1])/c for any i with c != 0. There is one unless
    alpha is in F_q, and then any F serves. The form must give back every
    column."""
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
    power = 1
    for k in range(total):
        counts[k % p][(power * row >> slot & mask) % q] += 1
        power = form.mul(power, alpha)


def scan_counts(cols, trace, total: int, p: int, q: int, backend: str = "numpy"):
    """Histogram of (k mod p, Tr(alpha^k)) over k in [0, total), given, in a
    basis x^i of the field, cols[i] = the coefficients of alpha·x^i and
    trace[i] = Tr(x^i), i < n.

    `backend` is "numpy" (production: the projective scan, which covers the
    whole group, so `total` must be q^n - 1 and p(q-1) must divide it, and
    n(q-1)^2 < 2^53 must bound its dot products, so that float64 holds them
    exactly) or "python" (the full slow oracle, for any `total`).
    """
    n = len(cols)
    if backend == "numpy":
        if total != q**n - 1 or total // (q - 1) % p:
            raise ValueError(
                f"the projective scan needs total = q^n - 1 divisible by p(q-1), got {total}"
            )
        if n * (q - 1) ** 2 >= 1 << 53:
            raise FieldTooLarge(
                f"n(q-1)^2 = {n * (q - 1) ** 2} overflows the exact float64 integers (2^53)"
            )
        return _projective_counts(cols, trace, p, q)
    if backend == "python":
        import numpy as np

        py_counts = [[0] * q for _ in range(p)]
        cols = [[int(c) for c in col] for col in cols]
        _scan_python(cols, [int(t) for t in trace], total, p, q, py_counts)
        return np.array(py_counts, dtype=np.int64)
    raise ValueError(f"unknown scan backend {backend!r}")
