"""ADMM completion solver with fixed or adaptively refreshed transforms.

Given observed entries Y on a mask, the solver splits the recovery as
X + E = Y with E supported off the mask.  The multiplier Z starts at 0
and only gains support on the mask, so E is implicit: it is -X off the
mask and 0 on it.  With T = Y + Z/mu on the mask and T = X off it, the
loop iterates

  1. refresh Q from the right singular vectors of T
     (adaptive mode, cfg.q None, every K-th iteration; a given Q is kept)
  2. X  <- prox of (1/mu) * q_nuclear_norm at T
  3. Z  <- Z + mu * (Y - X) on the mask
  4. mu <- min(rho * mu, mu_max)

starting from X = Z = 0 and Q = identity columns.  Convergence requires
the feasibility and X-step infinity-norm residuals to fall below eps in
the same iteration; the E step is the X step off the mask, so never larger.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .orth import check_given_q, identity_q, right_singular_basis
from .qnorm import _prox_unfolded
from .tensor3 import fold3, unfold3, validate_tensor
from .threads import solve_scope


@dataclass
class SolverConfig:
    rho: float = 1.1
    mu0: float = 1e-4
    mu_max: float = 1e10
    eps: float = 1e-8
    K: int = 1
    r: int | None = None  # None means min(n1*n2, n3), or the width of q, at solve time
    max_iters: int = 500
    q: np.ndarray | None = None  # None adapts Q to the data; else a column-orthonormal (n3, r) Q

    def validate(self):
        if not self.rho > 1:
            raise ValueError(f"rho must exceed 1, got {self.rho}")
        if not 0 < self.mu0 <= self.mu_max < math.inf:
            raise ValueError(f"need 0 < mu0 <= mu_max < inf, got mu0={self.mu0}, mu_max={self.mu_max}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if self.r is not None and self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class SolverReport:
    """Per-run diagnostics.

    The three residual lists share one entry per iteration.  q_drift holds
    the projector change ||Q_k Q_k^T - Q_{k-1} Q_{k-1}^T||_F at each
    refresh (empty for fixed transforms).  objectives traces the
    q-nuclear norm of each iterate under that iteration's transform;
    res_feas_fro and res_e_fro mirror res_feas and res_e in the
    Frobenius norm.  E is implicit (-X off the mask, 0 on it), so
    e_omega_max, its largest on-mask magnitude, is 0.0 by construction.
    """

    iterations: int = 0
    res_feas: list = field(default_factory=list)
    res_x: list = field(default_factory=list)
    res_e: list = field(default_factory=list)
    mu_final: float = 0.0
    q_drift: list = field(default_factory=list)
    converged: bool = False
    objectives: list = field(default_factory=list)
    res_feas_fro: list = field(default_factory=list)
    res_e_fro: list = field(default_factory=list)
    e_omega_max: float = 0.0
    q_final: np.ndarray | None = None


def _mu_at(cfg, k):
    # mu after k growth steps; exact closed form, not an iterated product.
    # Past rho**k = e * mu_max / mu0 the product is surely capped; return the
    # cap there, since rho**k itself overflows a float (from k = 7448 at 1.1).
    if k * math.log(cfg.rho) > math.log(cfg.mu_max) - math.log(cfg.mu0) + 1.0:
        return cfg.mu_max
    return min(cfg.mu0 * cfg.rho ** k, cfg.mu_max)


def admm_complete(y, mask, cfg):
    """Complete a partially observed tensor; returns (X, SolverReport).

    y must be zero off the mask (i.e. y = project_omega(y, mask)).
    """
    y = validate_tensor(y)
    if mask.dims != y.shape:
        raise ValueError(f"mask dims {mask.dims} do not match tensor dims {y.shape}")
    cfg.validate()
    n1, n2, n3 = y.shape
    rmax = min(n1 * n2, n3)

    y3 = unfold3(y)
    m3 = np.ascontiguousarray(unfold3(mask.values))  # C like x3: mixed-order products are slow
    if np.any(y3[~m3] != 0.0):
        raise ValueError("input has nonzero entries off the mask; project it first")

    adaptive = cfg.q is None
    if adaptive:
        r = rmax if cfg.r is None else cfg.r
        if not 1 <= r <= rmax:
            raise ValueError(f"need 1 <= r <= min(n1*n2, n3) = {rmax}, got r={r}")
        q = identity_q(n3, r)
    else:
        q = check_given_q(cfg.q, n3, cfg.r)

    x3 = np.zeros(y3.shape)  # C like the prox's x3, so T is C from the first iteration
    z3 = np.zeros(y3.shape)  # zero off the mask throughout
    proj = q @ q.T

    report = SolverReport()
    with solve_scope() as pool:
        for k in range(1, cfg.max_iters + 1):
            mu = _mu_at(cfg, k - 1)
            t3 = y3 + z3 / mu + x3 * ~m3  # Y + Z/mu on the mask, X off it; faster than np.where
            if adaptive and (k - 1) % cfg.K == 0:
                q_new = right_singular_basis(t3, r)
                proj_new = q_new @ q_new.T
                report.q_drift.append(float(np.linalg.norm(proj_new - proj)))
                q, proj = q_new, proj_new
            x3_new, objective = _prox_unfolded(t3, q, 1.0 / mu, n1, n2, pool=pool)
            gap = (y3 - x3_new) * m3
            z3 += mu * gap
            report.res_feas.append(float(np.max(np.abs(gap))))
            report.res_feas_fro.append(float(np.linalg.norm(gap)))
            step = x3_new - x3
            report.res_x.append(float(np.max(np.abs(step))))
            step *= ~m3  # now the E step, up to sign
            report.res_e.append(float(np.max(np.abs(step))))
            report.res_e_fro.append(float(np.linalg.norm(step)))
            del gap, step  # kept to the next iteration, they would add two arrays to the prox peak
            report.objectives.append(objective)
            x3 = x3_new

            for name in ("res_feas", "res_x", "res_e"):
                value = getattr(report, name)[-1]
                if not math.isfinite(value):
                    raise ValueError(f"iteration {k}: residual {name} is {value}")
            if report.res_feas[-1] <= cfg.eps and report.res_x[-1] <= cfg.eps:
                report.converged = True
                break

    report.iterations = len(report.res_feas)
    report.mu_final = _mu_at(cfg, report.iterations)
    report.q_final = q
    return fold3(x3, (n1, n2, n3)), report


def fixed_q_complete(y, mask, q, cfg):
    """admm_complete with the transform pinned to q for every iteration."""
    return admm_complete(y, mask, replace(cfg, q=q))
