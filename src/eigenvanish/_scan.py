"""Hot kernel: the table of (k mod p, Tr(alpha^k)) counts over k < q^n - 1,
from one decimated, projective trace sequence per coset of <q> mod p.

The scan reads only the minimal polynomial `rec` of alpha and the traces
seed[i] = Tr(alpha^i), i < n: F_q[y]/(rec) is the field with y = alpha, and
Tr(x) = sum_i x_i·seed_i. With N = (q^n - 1)/(q - 1), three identities cut
the q^n - 1 trace terms of the full scan to N/p per column, in e + 1 columns:

- Cosets. k -> qk permutes the exponents mod q^n - 1, keeps traces and maps
  the residue m to qm mod p, so row m equals row qm. Only m = 0 and the least
  element of each coset of <q> in (Z/p)^* are counted.
- Decimation. The terms with k ≡ m (mod p) are t_j = Tr(alpha^m·beta^j),
  beta = alpha^p. With M the matrix of multiplication by beta on the basis
  y^i, t_j = seed·M^j·s_m, s_m the coefficients of y^m.
- Projective step. p divides N, and c = alpha^N, the norm of alpha,
  generates F_q^*, so t_{j+N/p} = c·t_j. With Z_m zeros among the first N/p
  terms, row m holds (q-1)·Z_m at trace 0 and N/p - Z_m at each nonzero
  trace.

The zero counter `_count_zeros` reads a block of terms of every column per
matmul from a power table built by doubling. `_scan_python` is the full
plain-python scan over all q^n - 1 powers, the oracle the production path
must match bit for bit.

numpy is imported inside the functions that use it, so it loads only when a
scan runs; importing the package, or a command that never scans, leaves it out.
"""

from .errors import InternalInvariant
from .ffield import _Kronecker, multiplicative_order

_BLOCK = 1 << 16


def _count_zeros(mult, trace, states, total, q):
    """Zeros among the terms trace·M^j·s, j < `total`, for each column s of
    `states`, M = `mult` an n×n matrix and `trace` a row of n, all over F_q.

    Row j of the power table U is trace·M^j, so U @ S yields terms k .. k+B-1
    of every column at once when S holds the columns' states M^k·s. U is
    filled by doubling, U[h:2h] = U[:h] @ M^h. Its height B is the greatest
    power of two up to min(_BLOCK, total), so the doubling's last squaring is
    M^B, the state jump S_{k+B} = M^B S_k.
    """
    import numpy as np

    height = 1 << min(_BLOCK, total).bit_length() - 1
    u = np.empty((height, len(trace)), dtype=np.int64)
    u[0] = trace
    step = np.asarray(mult, dtype=np.int64)  # M^h for the h rows filled so far
    h = 1
    while h < height:
        dst = u[h : 2 * h]
        np.matmul(u[:h], step, out=dst)
        np.remainder(dst, q, out=dst)
        step = step @ step % q
        h *= 2

    state = np.asarray(states, dtype=np.int64)
    zeros = np.zeros(state.shape[1], dtype=np.int64)
    terms = np.empty((height, state.shape[1]), dtype=np.int64)
    done = 0
    while done < total:
        cnt = min(height, total - done)
        out = terms[:cnt]
        np.matmul(u[:cnt], state, out=out)
        np.remainder(out, q, out=out)
        zeros += cnt - np.count_nonzero(out, axis=0)
        state = step @ state % q
        done += cnt
    return zeros


def _coset_owners(p: int, q: int) -> list[int]:
    """owner[m] is the least element of m's coset of <q> in Z/p (owner[0] = 0)."""
    owner = [0] + [-1] * (p - 1)
    for m in range(1, p):
        k = m
        while owner[k] < 0:
            owner[k] = m
            k = k * q % p
    return owner


def _projective_counts(rec, seed, p: int, q: int):
    import numpy as np

    n = len(rec)
    span = (q**n - 1) // (q - 1) // p  # N/p terms per column
    form = _Kronecker(rec, q)
    y = form.pack((0, 1) + (0,) * (n - 2))  # alpha in F_q[y]/(rec)
    norm = form.pow(y, span * p)  # in F_q exactly when its packed value is < q
    if not 0 < norm < q or multiplicative_order(norm, q) != q - 1:
        raise InternalInvariant(f"alpha^N = {form.unpack(norm)} does not generate F_{q}^*")
    beta = form.pow(y, p)
    # column i of M is beta·y^i
    mult = [form.unpack(form.mul(beta, form.pack((0,) * i + (1,)))) for i in range(n)]
    owner = _coset_owners(p, q)
    reps = sorted(set(owner))
    states = [form.unpack(form.pow(y, m)) for m in reps]
    zeros = _count_zeros(np.array(mult).T, seed, np.array(states).T, span, q)

    rows = np.empty((p, q), dtype=np.int64)
    zeros_of = dict(zip(reps, zeros.tolist()))
    for m in range(p):
        rows[m, 0] = (q - 1) * zeros_of[owner[m]]
        rows[m, 1:] = span - zeros_of[owner[m]]
    return rows


def _scan_python(rec, seed, total, p, q, counts):
    """Plain-python reference used by the cross-checking tests."""
    n = len(rec)
    window = list(seed)
    m = 0
    for k in range(total):
        counts[m][window[k % n]] += 1
        acc = sum(rec[j] * window[(k + j) % n] for j in range(n))
        window[k % n] = (-acc) % q
        m += 1
        if m == p:
            m = 0


def scan_counts(rec, seed, total: int, p: int, q: int, backend: str = "numpy"):
    """Histogram of (k mod p, Tr(alpha^k)) over k in [0, total), for alpha a
    root of the monic y^n + sum rec[i]·y^i and seed[i] = Tr(alpha^i), i < n.

    `backend` is "numpy" (production: the projective scan, which covers the
    whole group, so `total` must be q^n - 1 and p(q-1) must divide it) or
    "python" (the full slow oracle, for any `total`).
    """
    import numpy as np

    if backend == "numpy":
        if total != q ** len(rec) - 1 or total // (q - 1) % p:
            raise ValueError(
                f"the projective scan needs total = q^n - 1 divisible by p(q-1), got {total}"
            )
        return _projective_counts([int(c) for c in rec], [int(t) for t in seed], p, q)
    if backend == "python":
        py_counts = [[0] * q for _ in range(p)]
        _scan_python([int(c) for c in rec], [int(t) for t in seed], total, p, q, py_counts)
        return np.array(py_counts, dtype=np.int64)
    raise ValueError(f"unknown scan backend {backend!r}")
