"""The benchmark's output checks reject corrupted outputs.

    python3 -m pytest perfbench -q

Each check is run once on a correct output, where it must pass, and once
on the same output with one fault put in, where it must fail.
"""

import sys
import types

import numpy as np
import pytest

import oracle
import spans


@pytest.fixture
def instance():
    rng = np.random.default_rng(5)
    truth = oracle.low_rank_tensor(8, 2, rng)
    mask = oracle.bernoulli_mask(8, 0.7, rng)
    return truth, mask


@pytest.fixture
def rank_one_slices():
    # under the identity transform the Q-nuclear norm is slice-wise, and
    # rank-one slices observed at p=0.8 are their own nuclear-norm completion
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((8, 3)), rng.standard_normal((8, 3))
    truth = np.einsum("ik,jk->ijk", a, b)
    mask = oracle.bernoulli_mask(8, 0.8, rng)[:, :, :3]
    return truth, mask, np.eye(3)


def test_completion_check_rejects_a_changed_on_mask_entry(rank_one_slices):
    truth, mask, q = rank_one_slices
    assert oracle.check_completion(truth.copy(), truth, mask, q, np.random.default_rng(0), "x") == []
    bad = truth.copy()
    i, j, k = np.argwhere(mask)[0]
    bad[i, j, k] += 1e-3
    errors = oracle.check_completion(bad, truth, mask, q, np.random.default_rng(0), "x")
    assert any("on-mask error" in e for e in errors)


def test_completion_check_rejects_a_larger_norm_and_a_non_optimum(rank_one_slices):
    truth, mask, q = rank_one_slices
    noisy = np.where(mask, truth, truth + 0.1 * np.random.default_rng(1).standard_normal(truth.shape))
    errors = oracle.check_completion(noisy, truth, mask, q, np.random.default_rng(0), "x")
    assert any("exceeds the truth's" in e for e in errors)
    assert any("perturbation lowers" in e for e in errors)


def test_spectrum_check_rejects_a_changed_value(instance):
    truth, _ = instance
    values = np.sort(oracle.slice_singular_values(truth, oracle.dct2(8)).ravel())[::-1]
    printed = [float(f"{v:.12e}") for v in values]
    assert oracle.check_spectrum(printed, truth, "s") == []
    printed[3] *= 1.0 + 1e-6
    assert oracle.check_spectrum(printed, truth, "s") != []
    assert oracle.check_spectrum(printed[:-1], truth, "s") != []


def test_psnr_check_rejects_a_wrong_value(instance):
    truth, _ = instance
    x = truth + 1e-3
    value = round(min(oracle.psnr(x, truth), oracle.PSNR_CAP_DB), 2)
    assert oracle.check_psnr(value, x, truth, "p") == []
    assert oracle.check_psnr(value + 0.01, x, truth, "p") != []


def test_synth_check_rejects_each_broken_property(instance):
    truth, mask = instance
    observed = np.where(mask, truth, 0.0)
    assert oracle.check_synth(truth, observed, mask, 2, "s") == []
    on = tuple(np.argwhere(mask)[0])
    off = tuple(np.argwhere(~mask)[0])
    changed = observed.copy()
    changed[on] += 1.0
    assert oracle.check_synth(truth, changed, mask, 2, "s") != []
    leaked = observed.copy()
    leaked[off] = 1.0
    assert oracle.check_synth(truth, leaked, mask, 2, "s") != []
    assert oracle.check_synth(truth, observed, mask, 1, "s") != []


def test_t3_and_m3_round_trip_and_truncation(instance, tmp_path):
    truth, mask = instance
    oracle.write_t3(tmp_path / "a.t3", truth)
    oracle.write_m3(tmp_path / "a.m3", mask)
    assert np.array_equal(oracle.read_t3(tmp_path / "a.t3"), truth)
    assert np.array_equal(oracle.read_m3(tmp_path / "a.m3"), mask)
    text = (tmp_path / "a.t3").read_text()
    (tmp_path / "cut.t3").write_text(text[: len(text) // 2].rsplit("\n", 1)[0] + "\n")
    with pytest.raises(ValueError):
        oracle.read_t3(tmp_path / "cut.t3")
    lines = (tmp_path / "a.m3").read_text().splitlines()
    (tmp_path / "dup.m3").write_text("\n".join(lines[:-1] + [lines[1]]) + "\n")
    with pytest.raises(ValueError):
        oracle.read_m3(tmp_path / "dup.m3")


def test_dct2_is_orthonormal_dct_ii():
    q = oracle.dct2(6)
    assert np.allclose(q.T @ q, np.eye(6), atol=1e-12)
    assert np.allclose(q[:, 0], 1 / np.sqrt(6))
    assert np.allclose(q[:, 1], np.sqrt(2 / 6) * np.cos(np.pi * (2 * np.arange(6) + 1) / 12))


def test_tracer_skips_missing_names_and_restores_originals(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.present = lambda v: v + 1
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    original = module.present
    tracer = spans.Tracer()
    tracer.install([("fake_layer", "present", "a.present"), ("fake_layer", "gone", "b.gone")])
    assert tracer.missing == {"b.gone"}
    with tracer.span("outer"):
        assert module.present(1) == 2
    tracer.close()
    assert module.present is original
    t = spans.totals(tracer.spans)
    assert t["a.present"]["calls"] == 1 and "b.gone" not in t
    assert t["outer"]["self_s"] == pytest.approx(t["outer"]["total_s"] - t["a.present"]["total_s"])


def test_probe_time_is_kept_out_of_enclosing_spans():
    # outer [0, 10] holds a prox span [1, 3] and a probe span [3, 7]
    recorded = [["outer", 0.0, 10.0, None, {}], ["qnorm.prox", 1.0, 3.0, 0, {}],
                [spans.PROBE, 3.0, 7.0, 0, {}]]
    t = spans.totals(recorded)
    assert t["outer"]["total_s"] == 6.0
    assert t["outer"]["self_s"] == 4.0
    assert t[spans.PROBE]["total_s"] == 4.0


def test_zero_slice_probe_counts_slices_shrunk_to_zero():
    tracer = spans.Tracer()
    g = np.zeros((3, 3, 4))
    g[:, :, 0] = np.diag([5.0, 0.0, 0.0])    # sigma_max 5 > lam: kept
    g[:, :, 1] = np.diag([0.5, 0.5, 0.5])    # sigma_max 0.5 <= lam, ||G||_F > lam: zero
    g[:, :, 2] = np.diag([2.0, 0.1, 0.0])    # kept
    t3 = np.reshape(g, (9, 4), order="F")
    assert tracer._zero_slices(t3, np.eye(4), 0.6, 3, 3) == 2
