import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import tqrank.solver
import tqrank.threads
from oracles import (
    admm_complete_explicit_e,
    matrix_complete_admm,
    prox_unfolded_unscreened,
    right_singular_basis_thin_svd,
)
from tqrank.bench import bernoulli_mask, psnr, synth_low_qrank
from tqrank.orth import dct_matrix, identity_q, pca_q, random_orthonormal
from tqrank.solver import (
    SolverConfig,
    _mu_at,
    admm_complete,
    fixed_q_complete,
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
    # past rho**k = mu_max / mu0 the schedule would overflow instead of capping
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="mu_max < inf"):
            SolverConfig(mu0=bad, mu_max=bad).validate()
        with pytest.raises(ValueError, match="mu_max < inf"):
            SolverConfig(mu_max=bad).validate()
    with pytest.raises(ValueError):
        SolverConfig(eps=0.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(K=0).validate()
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0).validate()
    SolverConfig().validate()
    # a given q is checked when the solve knows n3
    _, _, mask, y = masked_instance(4, 1, 0.7, 2)
    with pytest.raises(ValueError, match="not orthonormal"):
        admm_complete(y, mask, SolverConfig(q=np.ones((4, 2))))
    for rows in (3, 5):
        with pytest.raises(ValueError, match="does not have n3=4 rows"):
            admm_complete(y, mask, SolverConfig(q=np.eye(rows)))
    with pytest.raises(ValueError, match="r=3 does not match the 4 columns"):
        admm_complete(y, mask, SolverConfig(q=np.eye(4), r=3))


def test_rejects_inconsistent_input():
    y_true, _, mask, y = masked_instance(6, 2, 0.5, 0)
    with pytest.raises(ValueError, match="off the mask"):
        admm_complete(y_true + 1.0, mask, SolverConfig())
    with pytest.raises(ValueError, match="r="):
        admm_complete(y, mask, SolverConfig(r=7))
    with pytest.raises(ValueError, match="mask dims"):
        admm_complete(np.zeros((6, 6, 5)), mask, SolverConfig())


def test_given_q_width_must_match_r():
    _, _, mask, y = masked_instance(5, 1, 0.7, 3)
    with pytest.raises(ValueError, match="r=4 does not match the 2 columns"):
        admm_complete(y, mask, SolverConfig(r=4, q=identity_q(5, 2)))
    _, report = admm_complete(y, mask, SolverConfig(r=2, q=identity_q(5, 2), max_iters=3))
    assert np.array_equal(report.q_final, identity_q(5, 2))


def test_given_q_is_kept_for_the_whole_solve():
    _, _, mask, y = masked_instance(5, 1, 0.7, 3)
    q = random_orthonormal(5, 5, 4)
    _, report = admm_complete(y, mask, SolverConfig(q=q, max_iters=5))
    assert report.iterations == 5 and report.q_drift == []
    assert np.array_equal(report.q_final, q)


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


def test_mu_schedule_default_config_and_past_the_cap():
    cfg = SolverConfig()
    for k in range(501):
        assert _mu_at(cfg, k) == min(cfg.mu0 * cfg.rho ** k, cfg.mu_max)
    # rho ** k alone overflows a float at these k
    for k in (7500, 10 ** 6, 10 ** 12):
        assert _mu_at(cfg, k) == cfg.mu_max
    assert _mu_at(SolverConfig(rho=2.0), 1024) == 1e10


def test_determinism():
    _, _, mask, y = masked_instance(6, 2, 0.5, 3)
    x1, r1 = admm_complete(y, mask, SolverConfig())
    x2, r2 = admm_complete(y, mask, SolverConfig())
    assert np.array_equal(x1, x2)
    assert r1.res_feas == r2.res_feas
    assert r1.q_drift == r2.q_drift
    assert r1.objectives == r2.objectives


SOLVE_FIELDS = ("iterations", "res_feas", "res_x", "res_e", "mu_final", "q_drift", "converged",
                "objectives", "res_feas_fro", "res_e_fro", "e_omega_max")


def assert_same_solve(got, want):
    (x, report), (want_x, want_report) = got, want
    assert np.array_equal(x, want_x)
    assert np.array_equal(report.q_final, want_report.q_final)
    for name in SOLVE_FIELDS:
        assert getattr(report, name) == getattr(want_report, name), name


def instance(shape, r0, p, seed):
    y_true, _ = synth_low_qrank(*shape, r0, seed)
    mask = bernoulli_mask(*shape, p, seed + 1000)
    return mask, project_omega(y_true, mask)


def signed_zeros_off_mask():
    mask, y = instance((12, 12, 12), 2, 0.05, 9)
    y[~mask.values] = -0.0
    return mask, y


def full_mask():
    y_true, _ = synth_low_qrank(8, 8, 8, 2, 1)
    return ObservationMask.full((8, 8, 8)), y_true


EXPLICIT_E_CASES = {
    "adaptive-n20": (lambda: instance((20, 20, 20), 3, 0.5, 21), SolverConfig()),
    "dct-n20": (lambda: instance((20, 20, 20), 3, 0.5, 21), SolverConfig(q=dct_matrix(20))),
    "r5-12x10x14": (lambda: instance((12, 10, 14), 3, 0.6, 4), SolverConfig(r=5)),
    "K3": (lambda: instance((10, 10, 10), 2, 0.5, 4), SolverConfig(K=3)),
    "5x13x9": (lambda: instance((5, 13, 9), 2, 0.5, 6), SolverConfig()),
    "n3=1": (lambda: instance((6, 7, 1), 1, 0.5, 8), SolverConfig()),
    "full-mask": (full_mask, SolverConfig()),
    "p0.05-signed-zeros": (signed_zeros_off_mask, SolverConfig()),
}


@pytest.mark.parametrize("case", list(EXPLICIT_E_CASES))
def test_solve_matches_the_explicit_e_loop(case):
    make, cfg = EXPLICIT_E_CASES[case]
    mask, y = make()
    got = admm_complete(y, mask, cfg)
    want = admm_complete_explicit_e(y, mask, cfg)
    assert_same_solve(got, want)
    # array_equal takes -0.0 for 0.0; the bytes do not
    assert got[0].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("case", list(EXPLICIT_E_CASES))
def test_e_step_never_exceeds_x_step(case):
    # why the stopping rule does not test res_e: the E step is the X step off the mask
    make, cfg = EXPLICIT_E_CASES[case]
    mask, y = make()
    _, report = admm_complete(y, mask, cfg)
    assert report.iterations > 0
    assert all(e <= x for e, x in zip(report.res_e, report.res_x, strict=True))


@pytest.mark.parametrize("case", ["adaptive-n20", "r5-12x10x14", "K3", "5x13x9"])
def test_refresh_from_r_gives_the_thin_svd_solve(monkeypatch, case):
    make, cfg = EXPLICIT_E_CASES[case]
    mask, y = make()
    got = admm_complete(y, mask, cfg)
    monkeypatch.setattr(tqrank.solver, "right_singular_basis", right_singular_basis_thin_svd)
    want = admm_complete(y, mask, cfg)
    assert_same_solve(got, want)
    assert got[0].tobytes() == want[0].tobytes()


def test_solve_peak_memory_in_unfoldings(monkeypatch):
    # serial, so that only this thread's arrays count
    monkeypatch.setattr(tqrank.threads, "blas_control", lambda: None)
    _, _, mask, y = masked_instance(60, 6, 0.5, 5)
    cfg = SolverConfig(q=dct_matrix(60), max_iters=4)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        admm_complete(y, mask, cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # the loop with E as an array peaked at 12.2 unfoldings, this one at 9.2
    assert peak / y.nbytes < 10.5


def n20_config(q_mode):
    return SolverConfig() if q_mode == "adaptive" else SolverConfig(q=dct_matrix(20))


@pytest.mark.parametrize("q_mode", ["adaptive", "dct"])
def test_screened_prox_solve_bit_identical_to_unscreened(monkeypatch, q_mode):
    _, _, mask, y = masked_instance(20, 3, 0.5, 21)
    cfg = n20_config(q_mode)
    got = admm_complete(y, mask, cfg)
    monkeypatch.setattr(tqrank.solver, "_prox_unfolded",
                        lambda t3, q, lam, n1, n2, pool=None:
                        prox_unfolded_unscreened(t3, q, lam, n1, n2))
    assert got[1].converged
    assert_same_solve(got, admm_complete(y, mask, cfg))


@pytest.mark.parametrize("q_mode", ["adaptive", "dct"])
def test_solver_hands_the_prox_a_c_ordered_t3(monkeypatch, q_mode):
    # the prox multiplies a C-ordered t3; handed one, it copies nothing
    _, _, mask, y = masked_instance(20, 3, 0.5, 21)
    prox = tqrank.solver._prox_unfolded
    c_ordered = []

    def spy(t3, *args, **kwargs):
        c_ordered.append(t3.flags.c_contiguous)
        return prox(t3, *args, **kwargs)

    monkeypatch.setattr(tqrank.solver, "_prox_unfolded", spy)
    _, report = admm_complete(y, mask, n20_config(q_mode))
    assert len(c_ordered) == report.iterations > 0
    assert all(c_ordered)


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


def test_nonfinite_residual_stops_the_solve(monkeypatch):
    _, _, mask, y = masked_instance(6, 2, 0.5, 3)
    calls = []

    def prox(t3, q, lam, n1, n2, pool=None):
        calls.append(lam)
        x3, objective = prox_unfolded_unscreened(t3, q, lam, n1, n2)
        return (x3 if len(calls) < 3 else np.full_like(x3, np.nan)), objective

    monkeypatch.setattr(tqrank.solver, "_prox_unfolded", prox)
    with pytest.raises(ValueError, match="iteration 3: residual res_feas is nan"):
        admm_complete(y, mask, SolverConfig())


def require_blas():
    blas = tqrank.threads.blas_control()
    if blas is None:
        pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
    return blas


@pytest.mark.parametrize("q_mode", ["adaptive", "dct"])
def test_thread_policy_bit_identical_to_serial(monkeypatch, q_mode):
    _, _, mask, y = masked_instance(20, 3, 0.5, 21)
    cfg = n20_config(q_mode)
    pooled = admm_complete(y, mask, cfg)
    monkeypatch.setattr(tqrank.threads, "blas_control", lambda: None)
    serial = admm_complete(y, mask, cfg)
    assert pooled[1].converged
    assert_same_solve(pooled, serial)


def test_solve_runs_blas_at_one_thread_and_restores_the_count(monkeypatch):
    get, put = require_blas()
    _, _, mask, y = masked_instance(8, 2, 0.6, 2)
    prox = tqrank.solver._prox_unfolded
    inside = []

    def spy(*args, **kwargs):
        inside.append(get())
        if len(inside) == 3 and fail:
            raise RuntimeError("prox failed")
        return prox(*args, **kwargs)

    monkeypatch.setattr(tqrank.solver, "_prox_unfolded", spy)
    before = get()
    try:
        for count in (2, 1):
            put(count)
            for fail in (False, True):
                inside.clear()
                if fail:
                    with pytest.raises(RuntimeError, match="prox failed"):
                        admm_complete(y, mask, SolverConfig())
                else:
                    admm_complete(y, mask, SolverConfig())
                assert set(inside) == {1}
                assert get() == count
    finally:
        put(before)


def test_blas_count_restored_after_overlapping_solves(monkeypatch):
    # the first solve in leaves while the second is still running; BLAS
    # must stay at one thread until the second leaves, then go back
    get, _ = require_blas()
    _, _, mask, y = masked_instance(10, 2, 0.5, 31)
    want_short = admm_complete(y, mask, SolverConfig(max_iters=2))
    want_long = admm_complete(y, mask, SolverConfig())
    before = get()
    first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
    counts, results, errors = [], {}, []
    prox = tqrank.solver._prox_unfolded

    def gated(*args, **kwargs):
        if threading.current_thread().name == "first":
            first_in.set()
            assert second_in.wait(60)
        elif not second_in.is_set():
            second_in.set()
            assert first_out.wait(60)
        counts.append(get())
        return prox(*args, **kwargs)

    def solve(name, cfg):
        try:
            results[name] = admm_complete(y, mask, cfg)
        except BaseException as exc:
            errors.append(exc)
        finally:
            if name == "first":
                first_out.set()

    monkeypatch.setattr(tqrank.solver, "_prox_unfolded", gated)
    first = threading.Thread(target=solve, name="first", args=("first", SolverConfig(max_iters=2)))
    second = threading.Thread(target=solve, name="second", args=("second", SolverConfig()))
    first.start()
    assert first_in.wait(60)
    second.start()
    first.join(120)
    second.join(120)
    assert not first.is_alive() and not second.is_alive()
    assert not errors
    assert set(counts) == {1}
    assert get() == before
    assert_same_solve(results["first"], want_short)
    assert_same_solve(results["second"], want_long)


def test_many_concurrent_solves_keep_results_and_the_blas_count():
    get, _ = require_blas()
    _, _, mask, y = masked_instance(8, 2, 0.6, 2)
    cfgs = [SolverConfig(max_iters=m) for m in (5, 40, 500, 17, 3, 250)]
    want = [admm_complete(y, mask, cfg) for cfg in cfgs]
    before = get()
    results, errors = {}, []

    def solve(i):
        try:
            results[i] = admm_complete(y, mask, cfgs[i])
        except BaseException as exc:
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(cfgs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert get() == before
    for i, expected in enumerate(want):
        assert_same_solve(results[i], expected)


def test_solve_in_a_forked_child_after_a_solve_in_the_parent():
    _, _, mask, y = masked_instance(10, 2, 0.5, 41)
    x, _ = admm_complete(y, mask, SolverConfig())
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.array_equal(admm_complete(y, mask, SolverConfig())[0], x) else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 120
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the solve in the forked child did not finish")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


SOLVE_DIGEST = """
import hashlib
import numpy as np
from tqrank import SolverConfig, admm_complete, bernoulli_mask, dct_matrix, project_omega
from tqrank.bench import synth_low_qrank

digest = hashlib.sha256()
y_true, _ = synth_low_qrank(20, 20, 20, 3, 21)
mask = bernoulli_mask(20, 20, 20, 0.5, 1021)
y = project_omega(y_true, mask)
for cfg in (SolverConfig(), SolverConfig(q=dct_matrix(20))):
    x, report = admm_complete(y, mask, cfg)
    digest.update(x.tobytes())
    digest.update(report.q_final.tobytes())
    digest.update(repr([getattr(report, name) for name in {fields!r}]).encode())
print(digest.hexdigest())
"""


def test_solve_bytes_do_not_depend_on_blas_threads_at_start():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", SOLVE_DIGEST.format(fields=SOLVE_FIELDS)],
                             env=env, capture_output=True, text=True, timeout=300, check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
