import numpy as np
import pytest

import tqrank.bench
from tqrank.bench import (
    GridResult,
    bernoulli_mask,
    grid_to_csv,
    psnr,
    run_grid,
    synth_low_qrank,
    write_grid_csv,
)
from tqrank.solver import SolverConfig
from tqrank.tensor3 import frobenius, mode3_product, unfold3


def test_synth_full_subspace_is_gaussian_draw():
    # r0 = n3 <= n1*n2 makes W square, so the projection is the identity
    y, w = synth_low_qrank(4, 4, 4, 4, seed=0)
    m = np.random.default_rng(0).standard_normal((4, 4, 4)) / np.sqrt(4)
    assert np.allclose(y, m, atol=1e-12)
    assert w.shape == (4, 4)


def test_synth_unfolding_rank_bounded():
    for r0 in (1, 3, 5):
        y, w = synth_low_qrank(6, 5, 8, r0, seed=r0)
        sigma = np.linalg.svd(unfold3(y), compute_uv=False)
        assert np.all(sigma[r0:] <= 1e-8 * sigma[0])
        assert w.shape == (8, r0)


def test_synth_projector_idempotent():
    y, w = synth_low_qrank(5, 5, 6, 2, seed=1)
    back = mode3_product(mode3_product(y, w), w.T)
    assert frobenius(back - y) <= 1e-10 * frobenius(y)


def test_synth_deterministic_and_validates():
    y1, w1 = synth_low_qrank(4, 4, 5, 2, seed=9)
    y2, w2 = synth_low_qrank(4, 4, 5, 2, seed=9)
    assert np.array_equal(y1, y2) and np.array_equal(w1, w2)
    with pytest.raises(ValueError):
        synth_low_qrank(4, 4, 5, 6, seed=0)
    with pytest.raises(ValueError):
        synth_low_qrank(4, 4, 5, 0, seed=0)


def test_bernoulli_mask_basics():
    full = bernoulli_mask(3, 3, 3, 1.0, seed=0)
    assert full.count == 27
    m1 = bernoulli_mask(4, 5, 6, 0.3, seed=1)
    m2 = bernoulli_mask(4, 5, 6, 0.3, seed=1)
    assert np.array_equal(m1.values, m2.values)
    assert m1.indices() == m2.indices()
    with pytest.raises(ValueError):
        bernoulli_mask(3, 3, 3, 0.0, seed=0)
    with pytest.raises(ValueError):
        bernoulli_mask(3, 3, 3, 1.5, seed=0)


def test_bernoulli_mask_concentration():
    # binomial 3 sigma at p=0.5, 125000 draws is ~0.0042
    for seed in range(3):
        mask = bernoulli_mask(50, 50, 50, 0.5, seed=seed)
        assert 0.49 <= mask.rate <= 0.51


def test_psnr_values():
    ones = np.ones((2, 2, 2))
    assert psnr(ones, ones) == 200.0
    assert psnr(ones + 0.1, ones) == pytest.approx(20.0, abs=1e-9)
    # simultaneous scaling of error and reference cancels
    rng = np.random.default_rng(2)
    x_true = rng.standard_normal((3, 3, 3))
    x = x_true + rng.standard_normal((3, 3, 3)) * 0.05
    assert psnr(2 * x, 2 * x_true) == pytest.approx(psnr(x, x_true), rel=1e-12)
    # strictly decreasing in the error magnitude
    assert psnr(x_true + 0.02, x_true) > psnr(x_true + 0.1, x_true)
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2, 2)), np.ones((2, 2, 3)))


def test_run_grid_fully_observed_cell():
    grid = run_grid(10, [1.0], [1], 1, SolverConfig(), seed=0)
    assert grid.psnr.shape == (1, 1)
    assert grid.psnr[0, 0] == 200.0
    assert not grid.failed.any()


def test_run_grid_shape_order_and_csv(tmp_path):
    reports = []
    grid = run_grid(6, [0.8, 1.0], [1, 2], 2, SolverConfig(), seed=5,
                    on_cell=lambda pi, ri, t, v, rep: reports.append((pi, ri, t, v, rep)))
    assert grid.psnr.shape == (2, 2)
    assert np.all(grid.psnr >= 0) and np.all(grid.psnr <= 200)
    assert len(reports) == 8
    assert len(grid.seeds) == 8
    csv = grid_to_csv(grid)
    lines = csv.strip().split("\n")
    assert lines[0] == "p,r,psnr_mean,psnr_std,trials"
    assert len(lines) == 5
    # p outer, r inner
    assert [ln.split(",")[:2] for ln in lines[1:]] == [
        ["0.8", "1"], ["0.8", "2"], ["1.0", "1"], ["1.0", "2"]]
    path = tmp_path / "grid.csv"
    write_grid_csv(path, grid)
    assert path.read_text() == csv


def test_run_grid_deterministic():
    g1 = run_grid(6, [0.9], [1, 2], 2, SolverConfig(), seed=11)
    g2 = run_grid(6, [0.9], [1, 2], 2, SolverConfig(), seed=11)
    assert grid_to_csv(g1) == grid_to_csv(g2)
    g3 = run_grid(6, [0.9], [1, 2], 2, SolverConfig(), seed=12)
    assert grid_to_csv(g1) != grid_to_csv(g3)


def test_run_grid_records_failures_without_aborting():
    # r=100 is invalid for n=4, so every solve raises inside the grid
    grid = run_grid(4, [0.5], [1], 2, SolverConfig(r=100), seed=0)
    assert grid.failed.all()
    assert np.array_equal(grid.psnr, np.zeros((1, 1)))


def test_run_grid_records_failure_causes(monkeypatch):
    grid = run_grid(20, [0.5], [3], 1, SolverConfig(r=100), seed=0)
    assert grid.failed.tolist() == [[True]]
    assert grid.errors == [
        (0, 0, 0, "ValueError: need 1 <= r <= min(n1*n2, n3) = 20, got r=100")]
    assert grid_to_csv(grid) == "p,r,psnr_mean,psnr_std,trials\n0.5,3,0.000000,0.000000,1\n"
    assert run_grid(4, [0.9], [1], 1, SolverConfig(), seed=0).errors == []

    # anything but a numerical error is a bug and aborts the grid
    def broken(*args):
        raise KeyError("bug")
    monkeypatch.setattr(tqrank.bench, "admm_complete", broken)
    with pytest.raises(KeyError):
        run_grid(4, [0.9], [1], 1, SolverConfig(), seed=0)


def test_run_grid_validation():
    cfg = SolverConfig()
    with pytest.raises(ValueError):
        run_grid(4, [], [1], 1, cfg, seed=0)
    with pytest.raises(ValueError):
        run_grid(4, [0.5], [], 1, cfg, seed=0)
    with pytest.raises(ValueError):
        run_grid(4, [1.5], [1], 1, cfg, seed=0)
    with pytest.raises(ValueError):
        run_grid(4, [0.5], [5], 1, cfg, seed=0)
    with pytest.raises(ValueError):
        run_grid(4, [0.5], [1], 0, cfg, seed=0)
    # an invalid config fails before the first trial instead of in every one
    trials = []
    for bad in (SolverConfig(rho=1.0), SolverConfig(mu_max=float("inf")), SolverConfig(K=0)):
        with pytest.raises(ValueError):
            run_grid(4, [0.5], [1], 1, bad, seed=0, on_cell=lambda *args: trials.append(args))
    assert trials == []
