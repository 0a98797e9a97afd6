"""Column-orthonormal mode-3 transforms and their constructors.

A transform is an (n, r) float64 matrix Q with Q.T @ Q = I, 1 <= r <= n.
Every constructor applies the same deterministic sign convention: in each
column the entry of largest absolute value is positive, ties broken by
the smallest row index.  Comparisons between transforms of a degenerate
spectrum should be made through the projector Q @ Q.T, never column-wise.
"""

import numpy as np

from .tensor3 import FormatError, parse_floats, unfold3, write_text_atomic

# constructors must meet this; externally supplied matrices get looser checks
ORTHONORMALITY_TOL = 1e-10
# orthonormality tolerance for transforms supplied from outside (q files, fixed Q)
EXTERNAL_Q_TOL = 1e-6


def orthonormality_defect(q):
    """max |Q.T Q - I|, the worst-case deviation from orthonormality."""
    q = np.asarray(q, dtype=float)
    r = q.shape[1]
    return float(np.max(np.abs(q.T @ q - np.eye(r))))


def check_orthonormal(q, tol=ORTHONORMALITY_TOL):
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or not (1 <= q.shape[1] <= q.shape[0]):
        raise ValueError(f"transform shape {q.shape} is not (n, r) with 1 <= r <= n")
    defect = orthonormality_defect(q)
    if defect > tol:
        raise ValueError(f"columns are not orthonormal: defect {defect:.3e} > {tol:.1e}")
    return q


def fix_signs(q):
    """Flip columns so each column's largest-magnitude entry is positive.

    np.argmax takes the first maximum, which implements the smallest-row
    tie break.
    """
    q = np.array(q, dtype=float, copy=True)
    rows = np.argmax(np.abs(q), axis=0)
    signs = np.sign(q[rows, np.arange(q.shape[1])])
    signs[signs == 0] = 1.0
    return q * signs


def identity_q(n, r):
    """First r columns of the n x n identity."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    return np.eye(n)[:, :r]


def right_singular_basis(m, r):
    """Leading r right singular vectors of a matrix, sign-fixed.

    Singular values in descending order; for an all-zero matrix the first
    r identity columns are returned.
    """
    m = np.asarray(m, dtype=float)
    if not 1 <= r <= min(m.shape):
        raise ValueError(f"need 1 <= r <= {min(m.shape)}, got r={r}")
    if not m.any():
        return identity_q(m.shape[1], r)
    _, _, vh = np.linalg.svd(m, full_matrices=False)
    return fix_signs(vh[:r].T)


def pca_q(t, r):
    """Transform built from the leading right singular vectors of unfold3(t)."""
    n1, n2, n3 = t.shape
    if not 1 <= r <= min(n1 * n2, n3):
        raise ValueError(f"need 1 <= r <= min(n1*n2, n3) = {min(n1 * n2, n3)}, got r={r}")
    return right_singular_basis(unfold3(t), r)


def random_orthonormal(n, r, seed):
    """Orthonormalization of an n x r standard Gaussian matrix, sign-fixed."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, r))
    q, _ = np.linalg.qr(g)
    return fix_signs(q)


def dct_matrix(n):
    """Orthonormal DCT-II basis: column l samples cosine frequency l-1.

    Entry (k, l), 1-based: c_l * cos(pi * (2k - 1) * (l - 1) / (2n)) with
    c_1 = sqrt(1/n) and c_l = sqrt(2/n) otherwise.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    k = np.arange(1, n + 1)[:, None]
    l = np.arange(1, n + 1)[None, :]
    scale = np.full(n, np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    return fix_signs(scale[None, :] * np.cos(np.pi * (2 * k - 1) * (l - 1) / (2 * n)))


def l21_of_unfolding(t, q):
    """Sum of column 2-norms of unfold3(t) @ q."""
    n3 = t.shape[2]
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != n3:
        raise ValueError(f"transform shape {q.shape} incompatible with n3={n3}")
    return float(np.linalg.norm(unfold3(t) @ q, axis=0).sum())


# ---------------------------------------------------------------------------
# text format

def format_q(q):
    """Serialize a transform in the ``q`` format (column-major values)."""
    q = np.asarray(q, dtype=float)
    n, r = q.shape
    lines = [f"q {n} {r}"]
    flat = np.ravel(q, order="F")
    for start in range(0, flat.size, n):
        lines.append(" ".join(repr(float(v)) for v in flat[start:start + n]))
    return "\n".join(lines) + "\n"


def write_q(path, q):
    write_text_atomic(path, format_q(q))


def read_q(path):
    """Parse a ``q`` file into an (n, r) matrix.

    Orthonormality is the caller's check; only shape and finiteness are
    validated here.
    """
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or not lines[0].split():
        raise FormatError("line 1: missing 'q' header")
    header = lines[0].split()
    if header[0] != "q" or len(header) != 3:
        raise FormatError("line 1: expected header 'q n r'")
    try:
        n, r = int(header[1]), int(header[2])
    except ValueError:
        raise FormatError("line 1: n and r must be integers") from None
    if n <= 0 or not 1 <= r <= n:
        raise FormatError(f"line 1: need n >= 1 and 1 <= r <= n, got n={n}, r={r}")
    return parse_floats(lines, n * r).reshape(n, r, order="F")
