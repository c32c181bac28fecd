"""Hot kernel: stream t_k = Tr(alpha^k) for all k < q^n - 1 and histogram
(k mod p, t_k) pairs.

The trace sequence of powers of a generator satisfies the linear recurrence
given by the generator's minimal polynomial, so the scan is O(n) per step with
no polynomial multiplication. The production kernel is the blocked numpy path
`_scan_blocked`; `_scan_python` is a plain-python oracle that the test suite
compares it to, bit for bit.
"""

import numpy as np

_BLOCK = 1 << 16


def _companion(rec, q):
    n = rec.shape[0]
    mat = np.zeros((n, n), dtype=np.int64)
    mat[:-1, 1:] = np.eye(n - 1, dtype=np.int64)
    mat[-1] = (-rec) % q
    return mat


def _scan_blocked(rec, seed, total, p, q, counts):
    """Numpy path: advance the recurrence state a block at a time.

    With state s_k = (t_k .. t_{k+n-1}) and companion matrix C, row j of U is
    e_0^T C^j, so U @ s_k yields t_k .. t_{k+B-1} in one integer matmul.
    """
    n = rec.shape[0]
    block = max(_BLOCK, n)
    comp = _companion(rec, q)
    u = np.zeros((block, n), dtype=np.int64)
    u[0, 0] = 1
    for j in range(1, block):
        u[j] = u[j - 1] @ comp % q
    cpow = _mat_pow(comp, block, q)  # s_{k+block} = C^block s_k

    state = seed.astype(np.int64).copy()
    offsets = np.arange(block, dtype=np.int64)
    done = 0
    flat = counts.reshape(-1)
    while done < total:
        cnt = min(block, total - done)
        tvals = u[:cnt] @ state % q
        idx = (offsets[:cnt] + done) % p * q + tvals
        flat += np.bincount(idx, minlength=p * q)
        if cnt == block:
            state = cpow @ state % q
        done += cnt


def _mat_pow(mat, exponent, q):
    n = mat.shape[0]
    result = np.eye(n, dtype=np.int64)
    base = mat % q
    while exponent:
        if exponent & 1:
            result = result @ base % q
        base = base @ base % q
        exponent >>= 1
    return result


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
    """Histogram of (k mod p, Tr(alpha^k)) over k in [0, total).

    `backend` is "numpy" (production) or "python" (the slow oracle).
    """
    rec_arr = np.asarray(rec, dtype=np.int64)
    seed_arr = np.asarray(seed, dtype=np.int64)
    if backend == "numpy":
        counts = np.zeros((p, q), dtype=np.int64)
        _scan_blocked(rec_arr, seed_arr, total, p, q, counts)
        return counts
    if backend == "python":
        py_counts = [[0] * q for _ in range(p)]
        _scan_python(list(rec_arr), list(seed_arr), total, p, q, py_counts)
        return np.array(py_counts, dtype=np.int64)
    raise ValueError(f"unknown scan backend {backend!r}")
