"""Rank and norm functionals of a tensor seen through a mode-3 transform.

All quantities are read off the transformed tensor G = t x_3 Q, whose r
frontal slices are treated as ordinary matrices:

  * q_singular_values  per-slice singular values, one row per slice
  * tensor_q_rank      number of singular values above a relative cutoff
  * q_nuclear_norm     sum of all per-slice singular values (no 1/n3 factor)
  * q_spectral_norm    largest per-slice singular value
  * prox_q_nuclear     proximal map of lam * q_nuclear_norm
  * envelope_gap       rank minus nuclear norm at unit spectral scale

The nuclear/spectral pair is dual, and the nuclear norm lower-bounds the
rank on the spectral unit ball, which is what ``envelope_gap`` certifies
numerically.
"""

import numpy as np

from .orth import pca_q
from .tensor3 import check_transform_rows, fold3, mode3_product, unfold3

RANK_TOL = 1e-8
# relative margin below lam under which the prox screen declares a slice zero
SCREEN_MARGIN = 1e-8
# smallest lam the screen works at: squares of entries near it stay normal floats
SCREEN_MIN_LAM = 1e-140
# the prox takes its slices in batches of at most this many bytes per stack:
# glibc keeps what a pool thread frees in that thread's own arena, and batches
# of whole chunks raised the peak RSS of an n=60 DCT solve by 4 MB against the
# serial prox, where these batches raise it by 1.5 MB
SVD_BATCH_BYTES = 1 << 17


def _slice_stack(g3, n1, n2):
    # columns of g3 are flattened slices; stack them as (r, n1, n2)
    return np.moveaxis(np.reshape(g3, (n1, n2, -1), order="F"), 2, 0)


def _stack_to_unfolding(stack, n1, n2):
    return np.reshape(np.moveaxis(stack, 0, 2), (n1 * n2, -1), order="F")


def q_singular_values(t, q):
    """Per-slice singular values of t x_3 q as an (r, min(n1, n2)) array.

    Row i holds the descending singular values of the i-th transformed
    slice.
    """
    return np.linalg.svd(np.moveaxis(mode3_product(t, q), 2, 0), compute_uv=False)


def tensor_q_rank(t, q, tol=RANK_TOL):
    """Total count of singular values above tol * (largest singular value).

    Zero tensors have rank 0.  The cutoff is relative to the largest
    singular value across all transformed slices.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    sv = q_singular_values(t, q)
    top = sv.max()
    if top == 0.0:
        return 0
    return int(np.count_nonzero(sv > tol * top))


def q_nuclear_norm(t, q):
    """Sum of singular values over all transformed slices."""
    return float(q_singular_values(t, q).sum())


def q_spectral_norm(t, q):
    """Largest singular value over all transformed slices."""
    return float(q_singular_values(t, q).max())


def _frobenius_screen(stack, lam):
    """First step of ``_live_slices``: indices of the slices the Frobenius bound
    keeps, and a mask over all slices of those the Gram bound must decide."""
    r, n1, n2 = stack.shape
    if lam < SCREEN_MIN_LAM:
        return np.arange(r), np.zeros(r, dtype=bool)
    fro = np.linalg.norm(stack, axis=(1, 2))
    return np.flatnonzero(fro > lam * (1.0 - SCREEN_MARGIN)), fro <= lam * np.sqrt(min(n1, n2))


def _gram_screen(stack, keep, unsure, lam):
    """Second step of ``_live_slices``: the indices in keep the Gram bound keeps.

    unsure[i] says whether slice keep[i] needs the bound.
    """
    if not unsure.any():
        return keep
    _, n1, n2 = stack.shape
    g = stack[keep[unsure]]
    gram = g @ g.transpose(0, 2, 1) if n1 <= n2 else g.transpose(0, 2, 1) @ g
    del g  # with abs in place, at most two arrays of this size live at once
    live = np.ones(len(keep), dtype=bool)
    bound = np.sqrt(np.abs(gram, out=gram).sum(axis=2).max(axis=1))
    live[unsure] = bound > lam * (1.0 - SCREEN_MARGIN)
    return keep[live]


def _live_slices(stack, lam):
    """Mask of the slices in an (r, n1, n2) stack whose sigma_max may exceed lam.

    Every other slice has sigma_max <= lam, so the prox shrinks it to exactly
    zero.  sigma_max is bounded above by ||G||_F and, for the slices that
    bound leaves open, by the square root of the largest absolute row sum of
    the Gram matrix on the smaller side; ||G||_F > lam * sqrt(min(n1, n2))
    already forces sigma_max > lam.  A slice counts as dead only when its
    bound is at most lam * (1 - SCREEN_MARGIN), so rounding in the bound or
    in LAPACK's sigma_max cannot flip a borderline slice.  Below
    SCREEN_MIN_LAM the squares in both bounds could underflow, so every
    slice is kept.
    """
    keep, unsure = _frobenius_screen(stack, lam)
    live = np.zeros(len(stack), dtype=bool)
    live[_gram_screen(stack, keep, unsure[keep], lam)] = True
    return live


def _prox_unfolded(t3, q, lam, n1, n2, pool=None):
    """Prox of lam * q_nuclear_norm on the unfolded tensor t3.

    Shrinks each transformed slice's singular values by lam and passes the
    orthogonal complement t x_3 (I - Q Q^T) through untouched.  Returns the
    unfolded result and the post-shrinkage nuclear norm (the q-nuclear norm
    of the result under this q).  Only the slices ``_live_slices`` keeps get
    an SVD; the rest are exact zeros, as the shrinkage would make them.
    With a ``threads.SlicePool`` the slices the Frobenius bound keeps are
    split into chunks that run the Gram bound, the SVD and the shrink on
    the pool's threads, in batches of at most SVD_BATCH_BYTES per stack;
    each slice's result is the same as in one batch of all slices.
    """
    g3 = t3 @ q
    stack = _slice_stack(g3, n1, n2)
    r = stack.shape[0]
    keep, unsure = _frobenius_screen(stack, lam)
    # C order, the layout np.matmul gives: the product with q.T below then
    # takes the same BLAS path whether or not any slice was screened out
    shrunk = np.zeros((r, n1, n2))
    s_all = np.zeros((r, min(n1, n2)))

    batch = max(1, SVD_BATCH_BYTES // (8 * n1 * n2))

    def shrink(chunk):
        # chunks write disjoint rows of shrunk and s_all, so no lock is needed
        for start in range(0, len(chunk), batch):
            idx = chunk[start:start + batch]
            idx = _gram_screen(stack, idx, unsure[idx], lam)
            if idx.size:
                u, s, vh = np.linalg.svd(stack[idx], full_matrices=False)
                s = np.maximum(s - lam, 0.0)
                u *= s[:, None, :]
                shrunk[idx] = np.matmul(u, vh)
                s_all[idx] = s

    if pool is None:
        shrink(keep)
    else:
        pool.run(shrink, keep)
    g3_shrunk = _stack_to_unfolding(shrunk, n1, n2)
    del shrunk
    x3 = g3_shrunk @ q.T + (t3 - g3 @ q.T)
    # summed over every slice, so the order of the additions does not depend
    # on which slices were live
    return x3, float(s_all.sum())


def prox_q_nuclear(t, q, lam):
    """Proximal map of lam * q_nuclear_norm at t.

    For square q this is the exact minimizer of
    lam * q_nuclear_norm(x, q) + 0.5 * ||x - t||_F^2; for thin q the
    component of t orthogonal to the column span passes through unchanged.
    lam = 0 returns t itself (slice reconstruction is skipped entirely).
    """
    n1, n2, n3 = t.shape
    q = check_transform_rows(q, n3)
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    if lam == 0:
        return np.array(t, dtype=float, copy=True)
    x3, _ = _prox_unfolded(unfold3(t), q, lam, n1, n2)
    return fold3(x3, (n1, n2, n3))


def envelope_gap(t, tol=RANK_TOL):
    """tensor_q_rank minus q_nuclear_norm at unit spectral scale.

    The transform is the full right-singular basis of the unfolding and t
    is rescaled so the largest transformed singular value is 1; the result
    is nonnegative up to rounding.
    """
    t = np.asarray(t, dtype=float)
    if not t.any():
        raise ValueError("envelope gap is undefined for the zero tensor")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n1, n2, n3 = t.shape
    q = pca_q(t, min(n1 * n2, n3))
    sv = q_singular_values(t, q)
    sv = sv / sv.max()
    rank = int(np.count_nonzero(sv > tol))
    return float(rank - sv.sum())
