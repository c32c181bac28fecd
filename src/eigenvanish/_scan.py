"""Hot kernel: stream t_k = Tr(alpha^k) for all k < q^n - 1 and histogram
(k mod p, t_k) pairs.

The trace sequence of powers of a generator satisfies the linear recurrence
given by the generator's minimal polynomial, so the scan is O(n) per step with
no polynomial multiplication. The production kernel `_scan_blocked` reads a
block of terms per matmul from a power table built by doubling and clamped to
the field; `_scan_python` is the plain-python oracle it must match bit for bit.

numpy is imported inside the functions that use it, so it loads only when a
scan runs; importing the package, or a command that never scans, leaves it out.
"""

_BLOCK = 1 << 16


def _companion(rec, q):
    import numpy as np

    n = rec.shape[0]
    mat = np.zeros((n, n), dtype=np.int64)
    mat[:-1, 1:] = np.eye(n - 1, dtype=np.int64)
    mat[-1] = (-rec) % q
    return mat


def _scan_blocked(rec, seed, total, p, q, counts):
    """Numpy path: advance the recurrence state a block at a time.

    With state s_k = (t_k .. t_{k+n-1}) and companion matrix C, row j of U is
    e_0^T C^j, so U @ s_k yields t_k .. t_{k+B-1} in one integer matmul. U is
    filled by doubling, U[h:2h] = U[:h] @ C^h; as e_0^T C^j = e_j^T for j < n,
    its n rows past the block are C^B, the state jump s_{k+B} = C^B s_k.
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

    state = seed.astype(np.int64).copy()
    offsets = np.arange(block, dtype=np.int64)
    done = 0
    flat = counts.reshape(-1)
    while done < total:
        cnt = min(block, total - done)
        tvals = u[:cnt] @ state % q
        idx = (offsets[:cnt] + done) % p * q + tvals
        flat += np.bincount(idx, minlength=p * q)
        state = u[block:] @ state % q
        done += cnt


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
    import numpy as np

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
