import numpy as np
import pytest

import tqrank.solver
from oracles import matrix_complete_admm, prox_unfolded_unscreened
from tqrank.bench import bernoulli_mask, psnr, synth_low_qrank
from tqrank.orth import dct_matrix, identity_q, pca_q, random_orthonormal
from tqrank.qnorm import q_nuclear_norm
from tqrank.solver import (
    SolverConfig,
    _mu_at,
    admm_complete,
    fixed_q_complete,
    objective_value,
)
from tqrank.tensor3 import (
    ObservationMask,
    frobenius,
    inf_norm_diff,
    project_omega,
)


def masked_instance(n, r0, p, seed):
    y_true, w = synth_low_qrank(n, n, n, r0, seed)
    mask = bernoulli_mask(n, n, n, p, seed + 1000)
    return y_true, w, mask, project_omega(y_true, mask)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rho=1.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(mu0=0.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(mu0=2.0, mu_max=1.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(eps=0.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(K=0).validate()
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0).validate()
    with pytest.raises(ValueError):
        SolverConfig(q_mode="fixed").validate()
    with pytest.raises(ValueError):
        SolverConfig(q_mode="other").validate()
    SolverConfig().validate()


def test_rejects_inconsistent_input():
    y_true, _, mask, y = masked_instance(6, 2, 0.5, 0)
    with pytest.raises(ValueError, match="off the mask"):
        admm_complete(y_true + 1.0, mask, SolverConfig())
    with pytest.raises(ValueError, match="r="):
        admm_complete(y, mask, SolverConfig(r=7))
    with pytest.raises(ValueError, match="mask dims"):
        admm_complete(np.zeros((6, 6, 5)), mask, SolverConfig())


def test_full_mask_recovers_input():
    y_true, _, _, _ = masked_instance(8, 2, 1.0, 1)
    mask = ObservationMask.full((8, 8, 8))
    x, report = admm_complete(y_true, mask, SolverConfig())
    assert report.converged
    assert inf_norm_diff(y_true, x) <= 1e-6
    # E never gets support on a full mask
    assert report.e_omega_max == 0.0


def test_report_invariants_and_feasibility():
    _, _, mask, y = masked_instance(8, 2, 0.6, 2)
    cfg = SolverConfig()
    x, report = admm_complete(y, mask, cfg)
    assert report.converged
    n = report.iterations
    assert len(report.res_feas) == len(report.res_x) == len(report.res_e) == n
    assert len(report.res_feas_fro) == len(report.objectives) == n
    assert report.res_feas[-1] <= cfg.eps
    assert report.res_x[-1] <= cfg.eps
    assert report.res_e[-1] <= cfg.eps
    # feasibility on the observed entries (E vanishes there)
    assert inf_norm_diff(project_omega(x, mask), y) <= 10 * cfg.eps
    assert report.e_omega_max == 0.0
    assert report.mu_final == min(cfg.rho ** n * cfg.mu0, cfg.mu_max)


def test_mu_schedule_closed_form():
    cfg = SolverConfig(rho=1.3, mu0=1e-2, mu_max=50.0)
    for k in range(100):
        assert _mu_at(cfg, k) == min(cfg.mu0 * cfg.rho ** k, cfg.mu_max)
    assert _mu_at(cfg, 60) == 50.0


def test_determinism():
    _, _, mask, y = masked_instance(6, 2, 0.5, 3)
    x1, r1 = admm_complete(y, mask, SolverConfig())
    x2, r2 = admm_complete(y, mask, SolverConfig())
    assert np.array_equal(x1, x2)
    assert r1.res_feas == r2.res_feas
    assert r1.q_drift == r2.q_drift
    assert r1.objectives == r2.objectives


@pytest.mark.parametrize("q_mode", ["adaptive", "dct"])
def test_screened_prox_solve_bit_identical_to_unscreened(monkeypatch, q_mode):
    _, _, mask, y = masked_instance(20, 3, 0.5, 21)
    cfg = SolverConfig() if q_mode == "adaptive" else \
        SolverConfig(q_mode="fixed", q_fixed=dct_matrix(20))
    x, report = admm_complete(y, mask, cfg)
    monkeypatch.setattr(tqrank.solver, "_prox_unfolded", prox_unfolded_unscreened)
    want_x, want = admm_complete(y, mask, cfg)
    assert report.converged
    assert np.array_equal(x, want_x)
    assert np.array_equal(report.q_final, want.q_final)
    for name in ("iterations", "res_feas", "res_x", "res_e", "mu_final", "q_drift",
                 "converged", "objectives", "res_feas_fro", "res_e_fro", "e_omega_max"):
        assert getattr(report, name) == getattr(want, name), name


def test_adaptive_beats_random_fixed():
    adaptive, fixed_random = [], []
    for seed in range(10):
        y_true, _, mask, y = masked_instance(30, 3, 0.7, 100 + seed)
        xa, _ = admm_complete(y, mask, SolverConfig())
        qr = random_orthonormal(30, 30, 500 + seed)
        xr, _ = fixed_q_complete(y, mask, qr, SolverConfig())
        adaptive.append(psnr(xa, y_true))
        fixed_random.append(psnr(xr, y_true))
    assert np.mean(adaptive) >= 40.0
    assert np.mean(adaptive) >= np.mean(fixed_random) + 3.0


def test_fixed_identity_equals_slicewise_completion():
    # oracle: independent per-slice nuclear-norm matrix completion
    y_true, _, mask, y = masked_instance(6, 2, 0.6, 4)
    y_true = y_true[:, :, :3]
    mask = ObservationMask(mask.values[:, :, :3])
    y = project_omega(y_true, mask)
    x, report = fixed_q_complete(y, mask, identity_q(3, 3), SolverConfig())
    assert report.converged
    want = np.stack([matrix_complete_admm(y[:, :, i], mask.values[:, :, i])
                     for i in range(3)], axis=2)
    assert frobenius(x - want) <= 1e-4 * frobenius(want)


def test_fixed_dct_on_smooth_data_converges():
    # slices drift slowly along k, so the cosine basis compacts them
    rng = np.random.default_rng(5)
    base = rng.standard_normal((6, 6))
    drift = rng.standard_normal((6, 6))
    t = np.stack([base + (k / 8.0) * drift for k in range(8)], axis=2)
    mask = bernoulli_mask(6, 6, 8, 0.8, seed=6)
    y = project_omega(t, mask)
    x, report = fixed_q_complete(y, mask, dct_matrix(8), SolverConfig())
    assert report.converged
    assert report.res_feas[-1] <= SolverConfig().eps


def test_fixed_q_saturated_mu_combined_residual_monotone():
    # constant penalty from the start: the squared feasibility residual
    # plus the squared splitting-step change must not grow (the raw
    # feasibility norm alone is allowed small late-stage bumps)
    _, _, mask, y = masked_instance(8, 2, 0.6, 7)
    cfg = SolverConfig(mu0=1.0, mu_max=1.0, max_iters=200)
    _, report = fixed_q_complete(y, mask, identity_q(8, 8), cfg)
    combined = np.array(report.res_feas_fro) ** 2 + np.array(report.res_e_fro) ** 2
    assert np.all(np.diff(combined) <= 1e-8)
    # and the residual still vanishes overall
    assert report.res_feas_fro[-1] <= 1e-2 * report.res_feas_fro[0]


def test_objective_value_delegates():
    t = np.random.default_rng(8).standard_normal((3, 3, 4))
    q = random_orthonormal(4, 4, 9)
    assert objective_value(np.zeros((2, 2, 2)), np.eye(2)) == 0.0
    assert objective_value(t, q) == q_nuclear_norm(t, q)


def test_objective_nonincreasing_after_mu_saturates():
    _, _, mask, y = masked_instance(8, 2, 0.6, 10)
    cfg = SolverConfig(rho=1.3, mu0=1e-2, mu_max=1e3, max_iters=400)
    _, report = fixed_q_complete(y, mask, identity_q(8, 8), cfg)
    saturated = next(k for k in range(report.iterations) if _mu_at(cfg, k) == cfg.mu_max)
    tail = np.array(report.objectives[saturated:])
    assert np.all(np.diff(tail) <= 1e-6)


def test_adaptive_q_stabilizes():
    # thin transform (r < n3) so the projector drift is informative; the
    # cut sits at the generator rank, where the singular gap pins the
    # subspace (cutting inside a degenerate tail would not stabilize)
    y_true, _ = synth_low_qrank(3, 3, 20, 2, seed=11)
    mask = bernoulli_mask(3, 3, 20, 0.9, seed=12)
    y = project_omega(y_true, mask)
    cfg = SolverConfig(r=2)
    x, report = admm_complete(y, mask, cfg)
    assert report.converged
    assert report.q_drift[-1] <= 1e-4
    q_star = pca_q(x, 2)
    q_final = report.q_final
    drift = np.linalg.norm(q_final @ q_final.T - q_star @ q_star.T)
    assert drift <= 1e-3


def test_refresh_period_respected():
    _, _, mask, y = masked_instance(6, 2, 0.7, 13)
    cfg = SolverConfig(K=5, max_iters=20, eps=1e-14)
    _, report = admm_complete(y, mask, cfg)
    # refreshes happen at k = 1, 6, 11, 16 only
    assert len(report.q_drift) == 4
    _, report1 = admm_complete(y, mask, SolverConfig(K=1, max_iters=20, eps=1e-14))
    assert len(report1.q_drift) == 20
