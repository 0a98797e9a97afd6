"""The benchmark's own reference code, in plain numpy.

Nothing here imports tqrank: inputs are generated, files are read and
written, and outputs are checked with code kept apart from the program
under test, so a fault in the program cannot hide itself by also being
in the check.

Each ``check_*`` function returns a list of failure messages; an empty
list means the output passed.
"""

import numpy as np

# PSNR saturation: past exact recovery a completion's PSNR follows only
# the solver's stopping point (one cell measured 180.0, 181.6 and 196.4 dB
# on different instances), so values are clipped here, as the release
# acceptance grid clips them.
PSNR_SATURATION_DB = 40.0

ON_MASK_RTOL = 1e-6      # |x - y| on the mask, relative to max |y|
QNORM_RTOL = 1e-6        # completion's Q-nuclear norm vs the truth's
PERTURB_SIZE = 1e-3      # off-mask perturbation, relative to ||x||_F
PERTURB_RTOL = 1e-9      # allowed decrease of the norm under perturbation
PERTURB_COUNT = 3
RANK_RTOL = 1e-9         # singular value cutoff, relative to the largest
SPECTRUM_RTOL = 1e-9     # spectrum agreement, relative to the largest value
PSNR_ATOL_DB = 0.006     # the CLI prints PSNR with two decimals
PSNR_CAP_DB = 200.0      # the CLI's own PSNR cap


def unfold(t):
    n1, n2, n3 = t.shape
    return np.reshape(t, (n1 * n2, n3), order="F")


def fold(m, dims):
    return np.reshape(m, dims, order="F")


def low_rank_tensor(n, r0, rng, basis=None):
    """Cubic tensor whose mode-3 unfolding has rank at most r0.

    A Gaussian unfolding with N(0, 1/n) entries, projected onto the span
    of its leading r0 right singular vectors, or of the first r0 columns
    of an orthonormal ``basis`` when one is given.
    """
    m = rng.standard_normal((n * n, n)) / np.sqrt(n)
    if basis is None:
        _, _, vh = np.linalg.svd(m, full_matrices=False)
        w = vh[:r0].T
    else:
        w = basis[:, :r0]
    return fold((m @ w) @ w.T, (n, n, n))


def bernoulli_mask(n, p, rng):
    return rng.random((n, n, n)) < p


def dct2(n):
    """Orthonormal DCT-II basis; column l samples cosine frequency l."""
    k = np.arange(n)[:, None]
    l = np.arange(n)[None, :]
    scale = np.where(l == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n))
    return scale * np.cos(np.pi * (2 * k + 1) * l / (2 * n))


def slice_singular_values(t, q):
    """Singular values of each frontal slice of t x_3 q, shape (r, min(n1, n2))."""
    n1, n2, _ = t.shape
    g = unfold(t) @ q
    stack = np.moveaxis(np.reshape(g, (n1, n2, -1), order="F"), 2, 0)
    return np.linalg.svd(stack, compute_uv=False)


def q_nuclear(t, q):
    return float(slice_singular_values(t, q).sum())


def psnr(x, ref):
    """10 log10(size * peak^2 / squared error), peak = max |ref|; inf if equal."""
    err2 = float(np.sum((x - ref) ** 2))
    if err2 == 0.0:
        return float("inf")
    peak = float(np.max(np.abs(ref)))
    return 10.0 * np.log10(x.size * peak * peak / err2)


def clipped_psnr(x, ref):
    return min(psnr(x, ref), PSNR_SATURATION_DB)


# ---------------------------------------------------------------------------
# t3 / m3 text formats

def format_t3(t):
    n1, n2, n3 = t.shape
    rows = np.ravel(t, order="F").reshape(-1, n1).tolist()
    lines = [f"t3 {n1} {n2} {n3}"]
    lines.extend(" ".join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"


def write_t3(path, t):
    with open(path, "w") as handle:
        handle.write(format_t3(t))


def read_t3(path):
    """Parse a t3 file; raises ValueError on a bad header or value count."""
    with open(path) as handle:
        tokens = handle.read().split()
    if len(tokens) < 4 or tokens[0] != "t3":
        raise ValueError(f"{path}: missing 't3 n1 n2 n3' header")
    dims = tuple(int(v) for v in tokens[1:4])
    values = np.array(tokens[4:], dtype=float)
    if values.size != dims[0] * dims[1] * dims[2]:
        raise ValueError(f"{path}: {values.size} values for dims {dims}")
    return np.reshape(values, dims, order="F")


def format_m3(mask):
    n1, n2, n3 = mask.shape
    idx = np.argwhere(mask) + 1
    lines = [f"m3 {n1} {n2} {n3} {len(idx)}"]
    lines.extend(f"{i} {j} {k}" for i, j, k in idx.tolist())
    return "\n".join(lines) + "\n"


def write_m3(path, mask):
    with open(path, "w") as handle:
        handle.write(format_m3(mask))


def read_m3(path):
    """Parse an m3 file; raises ValueError on a bad header, count or index."""
    with open(path) as handle:
        tokens = handle.read().split()
    if len(tokens) < 5 or tokens[0] != "m3":
        raise ValueError(f"{path}: missing 'm3 n1 n2 n3 count' header")
    dims = tuple(int(v) for v in tokens[1:4])
    count = int(tokens[4])
    idx = np.array(tokens[5:], dtype=np.int64)
    if idx.size != 3 * count:
        raise ValueError(f"{path}: {idx.size} index values for count {count}")
    idx = idx.reshape(count, 3) - 1
    if np.any(idx < 0) or np.any(idx >= np.array(dims)):
        raise ValueError(f"{path}: index out of range for dims {dims}")
    mask = np.zeros(dims, dtype=bool)
    mask[idx[:, 0], idx[:, 1], idx[:, 2]] = True
    if int(mask.sum()) != count:
        raise ValueError(f"{path}: duplicate indices")
    return mask


# ---------------------------------------------------------------------------
# output checks

def check_completion(x, truth, mask, q, rng, label):
    """A completion matches the data on the mask and is Q-norm optimal.

    Under the solve's final transform q, the completion's Q-nuclear norm
    is no larger than the truth's (the truth is feasible), and no small
    random perturbation off the mask lowers it.
    """
    errors = []
    if x.shape != truth.shape or not np.all(np.isfinite(x)):
        return [f"{label}: completion has shape {x.shape} or non-finite entries"]
    scale = float(np.max(np.abs(truth)))
    on_mask = float(np.max(np.abs(x - truth)[mask]))
    if on_mask > ON_MASK_RTOL * scale:
        errors.append(f"{label}: on-mask error {on_mask:.3e} > {ON_MASK_RTOL * scale:.3e}")
    nx, nt = q_nuclear(x, q), q_nuclear(truth, q)
    if nx > nt * (1.0 + QNORM_RTOL):
        errors.append(f"{label}: Q-nuclear norm {nx:.12g} exceeds the truth's {nt:.12g}")
    size = PERTURB_SIZE * float(np.linalg.norm(x))
    for _ in range(PERTURB_COUNT):
        d = np.where(mask, 0.0, rng.standard_normal(x.shape))
        d *= size / float(np.linalg.norm(d))
        nd = q_nuclear(x + d, q)
        if nd < nx * (1.0 - PERTURB_RTOL):
            errors.append(f"{label}: an off-mask perturbation lowers the Q-nuclear norm "
                          f"from {nx:.12g} to {nd:.12g}")
            break
    return errors


def check_synth(truth, observed, mask, r0, label):
    """Observed equals truth on the mask, is zero off it; unfolding rank <= r0."""
    errors = []
    if not (truth.shape == observed.shape == mask.shape):
        return [f"{label}: shapes {truth.shape}, {observed.shape}, {mask.shape} differ"]
    if not np.array_equal(observed[mask], truth[mask]):
        errors.append(f"{label}: observed differs from truth on the mask")
    if np.any(observed[~mask] != 0.0):
        errors.append(f"{label}: observed is nonzero off the mask")
    s = np.linalg.svd(unfold(truth), compute_uv=False)
    rank = int(np.count_nonzero(s > RANK_RTOL * s[0]))
    if rank > r0:
        errors.append(f"{label}: unfolding rank {rank} > r0 = {r0}")
    return errors


def check_spectrum(printed, t, label):
    """The CLI's DCT spectrum agrees with the singular values computed here."""
    expected = np.sort(slice_singular_values(t, dct2(t.shape[2])).ravel())[::-1]
    if len(printed) != expected.size:
        return [f"{label}: {len(printed)} values printed, expected {expected.size}"]
    worst = float(np.max(np.abs(np.asarray(printed) - expected)))
    if worst > SPECTRUM_RTOL * expected[0]:
        return [f"{label}: spectrum differs by {worst:.3e}"]
    return []


def check_psnr(printed, x, ref, label):
    """The CLI's PSNR agrees with the value computed here (capped as the CLI caps)."""
    expected = min(psnr(x, ref), PSNR_CAP_DB)
    if not abs(printed - expected) <= PSNR_ATOL_DB:
        return [f"{label}: printed PSNR {printed} differs from {expected:.4f}"]
    return []
