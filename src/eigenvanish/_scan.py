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
  beta = alpha^p. That sequence follows the recurrence of beta's
  characteristic polynomial, the product of (Y - beta^(q^i)) over i < n.
- Projective step. p divides N, and c = alpha^N, the norm of alpha,
  generates F_q^*, so t_{j+N/p} = c·t_j. With Z_m zeros among the first N/p
  terms, row m holds (q-1)·Z_m at trace 0 and N/p - Z_m at each nonzero
  trace.

The zero counter `_count_zeros` reads a block of terms of every column per
matmul from a power table built by doubling and clamped to the sequence.
`_scan_python` is the full plain-python scan over all q^n - 1 powers, the
oracle the production path must match bit for bit.

numpy is imported inside the functions that use it, so it loads only when a
scan runs; importing the package, or a command that never scans, leaves it out.
"""

from .errors import InternalInvariant
from .ffield import _Kronecker, characteristic_polynomial, multiplicative_order

_BLOCK = 1 << 16


def _companion(rec, q):
    import numpy as np

    n = rec.shape[0]
    mat = np.zeros((n, n), dtype=np.int64)
    mat[:-1, 1:] = np.eye(n - 1, dtype=np.int64)
    mat[-1] = (-rec) % q
    return mat


def _count_zeros(rec, seeds, total, q):
    """Zeros among the first `total` terms of each column's sequence, every
    column following t_{k+n} = -sum_j rec[j]·t_{k+j} from its n seed terms.

    With state s_k = (t_k .. t_{k+n-1}) and companion matrix C, row j of U is
    e_0^T C^j, so U @ S yields terms k .. k+B-1 of every column of the state
    matrix S in one integer matmul. U is filled by doubling,
    U[h:2h] = U[:h] @ C^h; as e_0^T C^j = e_j^T for j < n, its n rows past the
    block are C^B, the state jump S_{k+B} = C^B S_k.
    """
    import numpy as np

    n = rec.shape[0]
    block = max(n, min(_BLOCK, total))
    u = np.zeros((block + n, n), dtype=np.int64)
    u[0, 0] = 1
    step = _companion(rec, q)  # C^h for the h rows filled so far
    h = 1
    while h < len(u):
        dst = u[h : 2 * h]
        np.matmul(u[: len(dst)], step, out=dst)
        np.remainder(dst, q, out=dst)
        step = step @ step % q
        h *= 2

    state = seeds.astype(np.int64)
    zeros = np.zeros(state.shape[1], dtype=np.int64)
    terms = np.empty((block, state.shape[1]), dtype=np.int64)
    done = 0
    while done < total:
        cnt = min(block, total - done)
        out = terms[:cnt]
        np.matmul(u[:cnt], state, out=out)
        np.remainder(out, q, out=out)
        zeros += cnt - np.count_nonzero(out, axis=0)
        state = u[block:] @ state % q
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
    norm = form.unpack(form.pow(y, span * p))
    if any(norm[1:]) or not norm[0] or multiplicative_order(norm[0], q) != q - 1:
        raise InternalInvariant(f"alpha^N = {norm} does not generate F_{q}^*")
    beta = form.pow(y, p)
    beta_rec = characteristic_polynomial(form.unpack(beta), rec, q)

    owner = _coset_owners(p, q)
    reps = sorted(set(owner))
    seeds = []
    for m in reps:
        x = form.pow(y, m)
        column = []
        for _ in range(n):
            column.append(sum(a * t for a, t in zip(form.unpack(x), seed)) % q)
            x = form.mul(x, beta)
        seeds.append(column)
    zeros = _count_zeros(np.array(beta_rec, dtype=np.int64), np.array(seeds).T, span, q)

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
