"""Reference implementations used only as test oracles.

Coded independently of the package under test (plain numpy, matrices
only, no shared helpers), except ``admm_complete_explicit_e``, which
keeps the solver's loop algebra for comparison and so calls the
package's prox and transform refresh, and
``right_singular_basis_thin_svd``, which keeps the package's sign
convention and zero-matrix transform so that results compare byte for
byte.
"""

import numpy as np

from tqrank.orth import check_given_q, fix_signs, identity_q, right_singular_basis
from tqrank.qnorm import _prox_unfolded
from tqrank.solver import SolverReport, _mu_at
from tqrank.tensor3 import fold3, unfold3


def matrix_complete_admm(y, observed, rho=1.1, mu0=1e-4, mu_max=1e10, eps=1e-8,
                         max_iters=500):
    """Nuclear-norm matrix completion of a single 2-d array by ADMM.

    y holds observed values (zero where unobserved); observed is a boolean
    array marking the known entries.
    """
    x = np.zeros_like(y)
    e = np.zeros_like(y)
    z = np.zeros_like(y)
    mu = mu0
    for _ in range(max_iters):
        u, s, vh = np.linalg.svd(y - e + z / mu, full_matrices=False)
        x_new = (u * np.maximum(s - 1.0 / mu, 0.0)) @ vh
        e_new = np.where(observed, 0.0, y - x_new + z / mu)
        z = z + mu * (y - x_new - e_new)
        done = (np.max(np.abs(y - x_new - e_new)) <= eps
                and np.max(np.abs(x_new - x)) <= eps
                and np.max(np.abs(e_new - e)) <= eps)
        x, e = x_new, e_new
        mu = min(rho * mu, mu_max)
        if done:
            break
    return x


def right_singular_basis_thin_svd(m, r):
    """``tqrank.orth.right_singular_basis`` from a thin SVD of m itself.

    Forms the unused n_rows x n_cols left factor; the package takes V from
    the R of a QR instead.
    """
    m = np.asarray(m, dtype=float)
    if not 1 <= r <= min(m.shape):
        raise ValueError(f"need 1 <= r <= {min(m.shape)}, got r={r}")
    if not m.any():
        return identity_q(m.shape[1], r)
    _, _, vh = np.linalg.svd(m, full_matrices=False)
    return fix_signs(vh[:r].T)


def prox_unfolded_unscreened(t3, q, lam, n1, n2):
    """The Q-nuclear prox with one SVD per transformed slice, none skipped.

    Same arguments and results as ``tqrank.qnorm._prox_unfolded``: t3 is the
    (n1*n2, n3) mode-3 unfolding, q an (n3, r) column-orthonormal transform.
    Like the package's prox, it multiplies a C-ordered copy of t3, since
    ``t3 @ q`` rounds differently for other layouts.
    """
    t3 = np.ascontiguousarray(t3)
    g3 = t3 @ q
    stack = np.moveaxis(np.reshape(g3, (n1, n2, -1), order="F"), 2, 0)
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    s = np.maximum(s - lam, 0.0)
    shrunk = np.matmul(u * s[:, None, :], vh)
    g3_shrunk = np.reshape(np.moveaxis(shrunk, 0, 2), (n1 * n2, -1), order="F")
    x3 = g3_shrunk @ q.T + (t3 - g3 @ q.T)
    return x3, float(s.sum())


def admm_complete_explicit_e(y, mask, cfg):
    """``tqrank.solver.admm_complete`` with E carried as an array.

    The loop that keeps E (zero on the mask) and updates it as the
    off-mask part of Y - X + Z/mu, run serially; inputs are assumed valid.
    Returns (X, SolverReport) as the solver does.
    """
    n1, n2, n3 = y.shape
    y3 = unfold3(y)
    m3 = np.reshape(mask.values, (n1 * n2, n3), order="F")
    adaptive = cfg.q is None
    if adaptive:
        r = min(n1 * n2, n3) if cfg.r is None else cfg.r
        q = identity_q(n3, r)
    else:
        q = check_given_q(cfg.q, n3, cfg.r)

    x3 = np.zeros_like(y3)
    e3 = np.zeros_like(y3)
    z3 = np.zeros_like(y3)
    proj = q @ q.T
    report = SolverReport()
    for k in range(1, cfg.max_iters + 1):
        mu = _mu_at(cfg, k - 1)
        z3_mu = z3 / mu
        t3 = y3 - e3 + z3_mu
        if adaptive and (k - 1) % cfg.K == 0:
            q_new = right_singular_basis(t3, r)
            proj_new = q_new @ q_new.T
            report.q_drift.append(float(np.linalg.norm(proj_new - proj)))
            q, proj = q_new, proj_new
        x3_new, objective = _prox_unfolded(t3, q, 1.0 / mu, n1, n2)
        e3_new = np.where(m3, 0.0, y3 - x3_new + z3_mu)
        gap = y3 - x3_new - e3_new
        z3 = z3 + mu * gap
        report.res_feas.append(float(np.max(np.abs(gap))))
        report.res_feas_fro.append(float(np.linalg.norm(gap)))
        report.res_x.append(float(np.max(np.abs(x3_new - x3))))
        step_e = e3_new - e3
        report.res_e.append(float(np.max(np.abs(step_e))))
        report.res_e_fro.append(float(np.linalg.norm(step_e)))
        report.objectives.append(objective)
        x3, e3 = x3_new, e3_new
        if report.res_feas[-1] <= cfg.eps and report.res_x[-1] <= cfg.eps \
                and report.res_e[-1] <= cfg.eps:
            report.converged = True
            break

    report.iterations = len(report.res_feas)
    report.mu_final = _mu_at(cfg, report.iterations)
    report.e_omega_max = float(np.max(np.abs(e3[m3]))) if m3.any() else 0.0
    report.q_final = q
    return fold3(x3, (n1, n2, n3)), report
