"""Synthetic benchmarks: generators, PSNR, and the (p, r0) phase grid.

The grid runner completes synthetic low-rank tensors over a cartesian
product of sampling rates and generator ranks, averaging PSNR over
trials.  Every cell derives its own seeds from (master seed, p index,
r index, trial), so results do not depend on evaluation order.
"""

from dataclasses import dataclass, field

import numpy as np

from .orth import pca_q
from .solver import admm_complete
from .tensor3 import mode3_product, ObservationMask, project_omega, write_text_atomic

PSNR_CAP = 200.0


def synth_low_qrank(n1, n2, n3, r0, seed):
    """Random tensor whose mode-3 unfolding has rank at most r0.

    Draws M with i.i.d. N(0, 1/n3) entries, takes W as its leading r0
    right-singular-vector transform, and projects: y = M x3 W x3 W^T.
    Returns (y, W).
    """
    if not 1 <= r0 <= min(n1 * n2, n3):
        raise ValueError(f"need 1 <= r0 <= min(n1*n2, n3), got r0={r0}")
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n1, n2, n3)) / np.sqrt(n3)
    w = pca_q(m, r0)
    return mode3_product(mode3_product(m, w), w.T), w


def bernoulli_mask(n1, n2, n3, p, seed):
    """Mask including each position independently with probability p."""
    if not 0 < p <= 1:
        raise ValueError(f"need 0 < p <= 1, got p={p}")
    rng = np.random.default_rng(seed)
    return ObservationMask(rng.random((n1, n2, n3)) < p)


def psnr(x, x_true):
    """10 log10(n * peak^2 / squared error), capped at 200.

    peak is the largest absolute entry of the reference; identical
    tensors hit the cap.
    """
    x = np.asarray(x, dtype=float)
    x_true = np.asarray(x_true, dtype=float)
    if x.shape != x_true.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_true.shape}")
    peak = float(np.max(np.abs(x_true)))
    if peak == 0.0:
        raise ValueError("psnr is undefined for a zero reference tensor")
    err2 = float(np.sum((x - x_true) ** 2))
    if err2 == 0.0:
        return PSNR_CAP
    return min(10.0 * np.log10(x.size * peak * peak / err2), PSNR_CAP)


@dataclass
class GridResult:
    p_values: list
    r_values: list
    psnr: np.ndarray       # (|p|, |r|) mean over trials
    psnr_std: np.ndarray   # same shape, population std
    trials: int
    seeds: list            # one derived base seed per (p, r, trial), row order
    failed: np.ndarray     # bool (|p|, |r|): any trial in the cell errored
    errors: list = field(default_factory=list)  # (p index, r index, trial, "Type: message")


def _cell_seeds(seed, p_index, r_index, trial):
    # stable per-cell derivation; independent of grid evaluation order
    state = np.random.SeedSequence([seed, p_index, r_index, trial]).generate_state(2)
    return int(state[0]), int(state[1])


def run_grid(n, p_values, r_values, trials, cfg, seed, on_cell=None):
    """PSNR phase grid over sampling rates and generator ranks.

    Numerical errors (ValueError, LinAlgError) in a trial mark the cell's
    ``failed`` flag, are recorded in ``errors`` and count the trial as
    PSNR 0 instead of aborting the grid.  ``on_cell``, if given, is
    called as on_cell(p_index, r_index, trial, psnr_value, report) after
    every trial (report is None for failed trials).
    """
    p_values = [float(p) for p in p_values]
    r_values = [int(r) for r in r_values]
    if not p_values or not r_values:
        raise ValueError("p_values and r_values must be non-empty")
    if any(not 0 < p <= 1 for p in p_values):
        raise ValueError(f"sampling rates must lie in (0, 1]: {p_values}")
    if any(not 1 <= r0 <= n for r0 in r_values):
        raise ValueError(f"generator ranks must lie in [1, {n}]: {r_values}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    cfg.validate()

    means = np.zeros((len(p_values), len(r_values)))
    stds = np.zeros_like(means)
    failed = np.zeros(means.shape, dtype=bool)
    seeds, errors = [], []
    for pi, p in enumerate(p_values):
        for ri, r0 in enumerate(r_values):
            values = []
            for trial in range(trials):
                synth_seed, mask_seed = _cell_seeds(seed, pi, ri, trial)
                seeds.append(synth_seed)
                repo = None
                try:
                    y_true, _ = synth_low_qrank(n, n, n, r0, synth_seed)
                    mask = bernoulli_mask(n, n, n, p, mask_seed)
                    x, repo = admm_complete(project_omega(y_true, mask), mask, cfg)
                    value = max(0.0, psnr(x, y_true))
                except (ValueError, np.linalg.LinAlgError) as exc:
                    failed[pi, ri] = True
                    errors.append((pi, ri, trial, f"{type(exc).__name__}: {exc}"))
                    value = 0.0
                values.append(value)
                if on_cell is not None:
                    on_cell(pi, ri, trial, value, repo)
            means[pi, ri] = np.mean(values)
            stds[pi, ri] = np.std(values)
    return GridResult(p_values, r_values, means, stds, trials, seeds, failed, errors)


def grid_to_csv(grid):
    """Serialize a grid (rows ordered p outer, r inner)."""
    lines = ["p,r,psnr_mean,psnr_std,trials"]
    for pi, p in enumerate(grid.p_values):
        for ri, r0 in enumerate(grid.r_values):
            lines.append(f"{p!r},{r0},{grid.psnr[pi, ri]:.6f},"
                         f"{grid.psnr_std[pi, ri]:.6f},{grid.trials}")
    return "\n".join(lines) + "\n"


def write_grid_csv(path, grid):
    write_text_atomic(path, grid_to_csv(grid))
