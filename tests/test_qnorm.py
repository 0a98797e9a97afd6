import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tqrank.qnorm
from oracles import prox_unfolded_unscreened
from tqrank.orth import dct_matrix, identity_q, pca_q, random_orthonormal
from tqrank.qnorm import (
    _live_slices,
    _prox_unfolded,
    _slice_stack,
    envelope_gap,
    prox_q_nuclear,
    q_nuclear_norm,
    q_singular_values,
    q_spectral_norm,
    tensor_q_rank,
)
from tqrank.tensor3 import fold3, frobenius, mode3_product
from tqrank.bench import synth_low_qrank
from tqrank.threads import SlicePool


def svt(mat, lam):
    # oracle: plain matrix singular value thresholding
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    return u @ np.diag(np.maximum(s - lam, 0.0)) @ vh


def test_q_singular_values_zero_and_scalar_slices():
    assert np.array_equal(q_singular_values(np.zeros((2, 2, 3)), np.eye(3)),
                          np.zeros((3, 2)))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 1, 4))
    q = random_orthonormal(4, 4, 1)
    values = q_singular_values(x, q)
    assert values.shape == (4, 1)
    assert np.allclose(values[:, 0], np.abs(x.reshape(1, 4) @ q).ravel(), atol=1e-14)


def test_q_singular_values_identity_matches_slice_svd():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((3, 4, 5))
    values = q_singular_values(t, np.eye(5))
    for i in range(5):
        assert np.allclose(values[i], np.linalg.svd(t[:, :, i], compute_uv=False),
                           atol=1e-12)


def test_q_singular_values_invariants():
    rng = np.random.default_rng(3)
    for seed in range(10):
        t = rng.standard_normal((3, 4, 5))
        q = random_orthonormal(5, 5, seed)
        values = q_singular_values(t, q)
        assert np.all(values >= 0)
        assert np.all(np.diff(values, axis=1) <= 1e-12)
        assert np.sum(values ** 2) == pytest.approx(frobenius(t) ** 2, rel=1e-8)
    with pytest.raises(ValueError):
        q_singular_values(t, np.eye(4))


def test_tensor_q_rank_examples():
    assert tensor_q_rank(np.zeros((2, 2, 3)), np.eye(3)) == 0
    one_hot = np.zeros((3, 3, 3))
    one_hot[0, 0, 0] = 1.0
    assert tensor_q_rank(one_hot, np.eye(3)) == 1
    with pytest.raises(ValueError):
        tensor_q_rank(one_hot, np.eye(3), tol=0.0)


def test_tensor_q_rank_synthetic():
    # generic projected tensor: r0 transformed slices, each full rank
    y, w = synth_low_qrank(10, 10, 10, 3, seed=4)
    assert tensor_q_rank(y, w, 1e-8) == 3 * 10


def test_q_nuclear_norm_values():
    assert q_nuclear_norm(np.zeros((2, 2, 3)), np.eye(3)) == 0.0
    rng = np.random.default_rng(5)
    slab = rng.standard_normal((4, 3, 1))
    want = np.linalg.svd(slab[:, :, 0], compute_uv=False).sum()
    assert q_nuclear_norm(slab, np.array([[1.0]])) == pytest.approx(want, rel=1e-12)
    t = rng.standard_normal((4, 4, 4))
    q = random_orthonormal(4, 4, 6)
    assert q_nuclear_norm(t, q) == pytest.approx(q_singular_values(t, q).sum(), rel=1e-12)


def test_q_spectral_norm_values():
    assert q_spectral_norm(np.zeros((2, 2, 3)), np.eye(3)) == 0.0
    t = np.zeros((3, 3, 3))
    t[0, 0, 0] = -2.5
    assert q_spectral_norm(t, np.eye(3)) == pytest.approx(2.5, abs=1e-15)
    rng = np.random.default_rng(7)
    for seed in range(10):
        s = rng.standard_normal((3, 3, 4))
        q = random_orthonormal(4, 4, seed)
        assert q_spectral_norm(s, q) <= q_nuclear_norm(s, q) + 1e-12


def test_prox_lambda_zero_is_identity():
    rng = np.random.default_rng(8)
    t = rng.standard_normal((3, 3, 4))
    q = random_orthonormal(4, 2, 9)
    assert np.array_equal(prox_q_nuclear(t, q, 0.0), t)
    with pytest.raises(ValueError):
        prox_q_nuclear(t, q, -0.1)


def test_prox_full_shrinkage():
    rng = np.random.default_rng(10)
    t = rng.standard_normal((3, 3, 4))
    q_square = random_orthonormal(4, 4, 11)
    lam = q_spectral_norm(t, q_square) + 1e-9
    assert frobenius(prox_q_nuclear(t, q_square, lam)) <= 1e-10
    # thin transform: the orthogonal complement survives full shrinkage
    q_thin = q_square[:, :2]
    lam = q_spectral_norm(t, q_thin) + 1e-9
    complement = t - mode3_product(mode3_product(t, q_thin), q_thin.T)
    assert frobenius(prox_q_nuclear(t, q_thin, lam) - complement) <= 1e-10


def test_prox_scalar_soft_threshold():
    t = fold3(np.array([[3.0, 1.0]]), (1, 1, 2))
    got = prox_q_nuclear(t, np.eye(2), 1.0)
    assert np.allclose(got.ravel(), [2.0, 0.0], atol=1e-12)


def test_prox_matches_slicewise_svt():
    # slice separability oracle at q = identity
    rng = np.random.default_rng(12)
    for _ in range(5):
        t = rng.standard_normal((4, 3, 5))
        for lam in (0.1, 1.0):
            got = prox_q_nuclear(t, np.eye(5), lam)
            for i in range(5):
                assert np.allclose(got[:, :, i], svt(t[:, :, i], lam), atol=1e-10)


def screen_case(n1, n2, n3, r, seed):
    """Unfolded t3, column-orthonormal q and lam for the prox screen.

    The transformed slices cycle through four kinds: small enough for the
    Frobenius bound to drop, a partial isometry scaled by 0.9 that only the
    Gram bound drops, clearly live, and an unscaled partial isometry, whose
    Gram bound is tight and whose LAPACK sigma_max is returned as lam.
    For thin q, t3 also carries a component outside the span of q.
    """
    rng = np.random.default_rng(seed)
    k = min(n1, n2)
    slices = []
    for i in range(r):
        kind = i % 4
        if kind == 0:
            g = rng.standard_normal((n1, n2))
            g *= 0.5 / np.linalg.norm(g)
        elif kind == 2:
            g = 3.0 * rng.standard_normal((n1, n2))
        else:
            iso, _ = np.linalg.qr(rng.standard_normal((max(n1, n2), k)))
            g = (0.9 if kind == 1 else 1.0) * (iso if n1 >= n2 else iso.T)
        slices.append(g)
    g3 = np.reshape(np.stack(slices, axis=2), (n1 * n2, r), order="F")
    q = random_orthonormal(n3, r, seed)
    t3 = g3 @ q.T + rng.standard_normal((n1 * n2, n3)) @ (np.eye(n3) - q @ q.T)
    sigma = np.linalg.svd(_slice_stack(t3 @ q, n1, n2), compute_uv=False)
    return t3, q, float(sigma[3, 0])


def screen_lam(where, sigma):
    """lam for a screen_case: "none" keeps every slice, "all" drops them all."""
    return {"none": 1e-6, "part": 1.0, "below": np.nextafter(sigma, 0.0), "at": sigma,
            "above": np.nextafter(sigma, np.inf), "all": 1e3}[where]


LAYOUTS = ("C", "F", "strided")


def laid_out(a, layout):
    """The values of the 2-d array a, C-ordered, F-ordered or not contiguous at all."""
    if layout == "strided":
        wide = np.zeros((a.shape[0], 2 * a.shape[1]))
        wide[:, ::2] = a
        return wide[:, ::2]
    return a.copy(order=layout)


@pytest.mark.parametrize("n1,n2", [(5, 5), (4, 7), (7, 3)])
# n3 of 16 and 20: there a C- and an F-ordered t3 give t3 @ q different bytes
@pytest.mark.parametrize("r,n3", [(4, 16), (20, 20)], ids=["thin", "square"])
@pytest.mark.parametrize("where", ["none", "part", "below", "at", "above", "all"])
def test_screened_prox_bit_identical_to_unscreened(n1, n2, r, n3, where):
    t3, q, sigma = screen_case(n1, n2, n3, r, seed=n1 * 10 + n2)
    lam = screen_lam(where, sigma)
    stack = _slice_stack(t3 @ q, n1, n2)
    live = _live_slices(stack, lam)
    fro = np.linalg.norm(stack, axis=(1, 2))
    if where == "none":
        assert live.all()
    elif where == "all":
        assert not live.any()
    else:
        # Frobenius bound, Gram bound, live, in the order screen_case builds them
        assert not live[0::4].any() and fro[0] <= lam
        assert not live[1::4].any() and fro[1] > lam
        assert live[2::4].all()
        assert live[3]
    want_x3, want_objective = prox_unfolded_unscreened(t3, q, lam, n1, n2)
    # the prox fixes the layout it multiplies, so no caller's layout moves a byte
    for layout in LAYOUTS:
        x3, objective = _prox_unfolded(laid_out(t3, layout), q, lam, n1, n2)
        assert np.array_equal(x3, want_x3), layout
        assert objective == want_objective, layout


def test_screen_keeps_every_slice_at_a_lam_whose_square_underflows():
    # entries of 1e-190 square to zero, so neither bound could see them
    t3, q, _ = screen_case(4, 4, 6, 6, seed=3)
    t3 = t3 * 1e-190
    lam = 1e-200
    assert _live_slices(_slice_stack(t3 @ q, 4, 4), lam).all()
    x3, objective = _prox_unfolded(t3, q, lam, 4, 4)
    want_x3, want_objective = prox_unfolded_unscreened(t3, q, lam, 4, 4)
    assert np.array_equal(x3, want_x3) and objective == want_objective > 0.0


@pytest.fixture(scope="module")
def pools():
    # more chunks than cores and than slices are both legal splits
    made = [SlicePool(cores) for cores in (2, 3, 7)]
    yield made
    for pool in made:
        pool.close()


@pytest.mark.parametrize("where", ["none", "part", "below", "at", "above", "all"])
def test_pooled_prox_bit_identical_to_unscreened(pools, where):
    for n1, n2 in ((5, 5), (4, 7), (7, 3)):
        for r in (4, 6):
            t3, q, sigma = screen_case(n1, n2, 6, r, seed=n1 * 10 + n2)
            lam = screen_lam(where, sigma)
            want_x3, want_objective = prox_unfolded_unscreened(t3, q, lam, n1, n2)
            for pool in pools:
                x3, objective = _prox_unfolded(t3, q, lam, n1, n2, pool=pool)
                assert np.array_equal(x3, want_x3)
                assert objective == want_objective


@pytest.mark.parametrize("batch", [None, 1, 3])
def test_pooled_prox_bit_identical_on_a_stack_of_20_slices(monkeypatch, pools, batch):
    if batch is not None:
        monkeypatch.setattr(tqrank.qnorm, "SVD_BATCH_BYTES", batch * 8 * 20 * 20)
    y, _ = synth_low_qrank(20, 20, 20, 6, seed=5)
    t3 = np.reshape(y, (400, 20), order="F") + 0.01
    q = dct_matrix(20)
    sigma = np.sort(q_singular_values(y + 0.01, q)[:, 0])
    for lam in (0.0, sigma[5], sigma[14], sigma[-1] * 2):
        want = prox_unfolded_unscreened(t3, q, lam, 20, 20)
        for pool in [None, *pools]:
            x3, objective = _prox_unfolded(t3, q, lam, 20, 20, pool=pool)
            assert np.array_equal(x3, want[0]) and objective == want[1]


class SpyPool(SlicePool):
    """A SlicePool that records the items of every run."""

    def __init__(self, cores):
        super().__init__(cores)
        self.items = []

    def run(self, fn, items):
        self.items.append(items)
        super().run(fn, items)


@pytest.mark.parametrize("where", ["none", "part", "below", "at", "above", "all"])
def test_prox_screens_once_and_pools_only_the_live_slices(monkeypatch, where):
    screened = []

    def spy(stack, lam):
        live = _live_slices(stack, lam)
        screened.append(live)
        return live

    monkeypatch.setattr(tqrank.qnorm, "_live_slices", spy)
    pool = SpyPool(2)
    try:
        for n1, n2 in ((5, 5), (4, 7), (7, 3)):
            t3, q, sigma = screen_case(n1, n2, 6, 6, seed=n1 * 10 + n2)
            lam = screen_lam(where, sigma)
            stack = _slice_stack(t3 @ q, n1, n2)
            screened.clear()
            pool.items.clear()
            _prox_unfolded(t3, q, lam, n1, n2, pool=pool)
            assert len(pool.items) == 1
            assert np.array_equal(pool.items[0], np.flatnonzero(_live_slices(stack, lam)))
            assert len(screened) == 1
            screened.clear()
            _prox_unfolded(t3, q, lam, n1, n2)
            assert len(screened) == 1
    finally:
        pool.close()


class FlakySvd:
    """np.linalg.svd that fails, as gesdd can, on any stack holding a marked slice."""

    def __init__(self, marked):
        self.marked = marked
        self.failures = 0
        self.svd = np.linalg.svd

    def __call__(self, a, *args, **kwargs):
        slices = np.reshape(a, (-1, *a.shape[-2:]))
        if any(np.array_equal(g, m) for g in slices for m in self.marked):
            self.failures += 1
            raise np.linalg.LinAlgError("SVD did not converge")
        return self.svd(a, *args, **kwargs)


@pytest.mark.parametrize("batch", [None, 1, 3])
def test_prox_takes_a_slice_gesdd_fails_on_from_its_transpose(monkeypatch, batch):
    if batch is not None:
        monkeypatch.setattr(tqrank.qnorm, "SVD_BATCH_BYTES", batch * 8 * 20 * 12)
    y, _ = synth_low_qrank(20, 12, 16, 4, seed=7)
    t3 = np.reshape(y, (240, 16), order="F") + 0.01
    q = dct_matrix(16)
    stack = _slice_stack(np.ascontiguousarray(t3) @ q, 20, 12)
    lam = np.sort(np.linalg.svd(stack, compute_uv=False)[:, 0])[3]
    live = np.flatnonzero(_live_slices(stack, lam))
    bad = stack[live[len(live) // 2]]
    want_x3, want_objective = prox_unfolded_unscreened(t3, q, lam, 20, 12)

    flaky = FlakySvd([bad])
    monkeypatch.setattr(np.linalg, "svd", flaky)
    x3, objective = _prox_unfolded(t3, q, lam, 20, 12)
    assert flaky.failures == 2  # its batch, then the slice alone
    np.testing.assert_allclose(x3, want_x3, rtol=0, atol=1e-12)
    assert objective == pytest.approx(want_objective, rel=1e-12)
    pool = SlicePool(2)
    try:
        # batches of more than one slice put the marked slice with other slices here
        pooled_x3, pooled_objective = _prox_unfolded(t3, q, lam, 20, 12, pool=pool)
        assert pooled_x3.tobytes() == x3.tobytes() and pooled_objective == objective

        monkeypatch.setattr(np.linalg, "svd", FlakySvd([bad, bad.T]))
        with pytest.raises(np.linalg.LinAlgError):
            _prox_unfolded(t3, q, lam, 20, 12)
        with pytest.raises(np.linalg.LinAlgError):
            _prox_unfolded(t3, q, lam, 20, 12, pool=pool)
    finally:
        pool.close()


def test_slice_pool_runs_contiguous_chunks_and_reraises():
    pool = SlicePool(3)
    try:
        seen = []
        pool.run(lambda idx: seen.append(idx.tolist()), np.arange(7))
        assert sorted(seen) == [[0, 1, 2], [3, 4], [5, 6]]
        seen.clear()
        pool.run(lambda idx: seen.append(idx.tolist()), np.arange(0))
        assert seen == [[]]

        def fail(idx):
            seen.append(idx.tolist())
            if idx[0] == 5:
                raise ValueError("chunk at 5")

        seen.clear()
        with pytest.raises(ValueError, match="chunk at 5"):
            pool.run(fail, np.arange(7))
        # the failure surfaces only after every chunk has run
        assert sorted(seen) == [[0, 1, 2], [3, 4], [5, 6]]
    finally:
        pool.close()


@st.composite
def stacks_and_lams(draw):
    r, n1, n2 = (draw(st.integers(1, 6)) for _ in range(3))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    stack = scale * draw(arrays(np.float64, (r, n1, n2),
                                elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    sigma = np.linalg.svd(stack, compute_uv=False)[:, 0]
    lam = draw(st.one_of(
        st.sampled_from(sigma.tolist()).filter(lambda s: s > 0.0),
        st.sampled_from(sigma.tolist()).map(lambda s: float(np.nextafter(s, 0.0))),
        st.floats(1e-6 * scale, 10.0 * scale)))
    return stack, lam, sigma


@settings(deadline=None)
@given(stacks_and_lams())
def test_screen_drops_only_slices_the_prox_zeroes(case):
    stack, lam, sigma = case
    live = _live_slices(stack, lam)
    assert np.all(sigma[~live] <= lam)


def prox_objective(x, t, q, lam):
    return lam * q_nuclear_norm(x, q) + 0.5 * frobenius(x - t) ** 2


def test_prox_optimality_sampled():
    rng = np.random.default_rng(13)
    transforms = ["identity", "random", "dct"]
    for trial in range(20):
        dims = tuple(rng.integers(2, 5, size=3))
        t = rng.standard_normal(dims)
        kind = transforms[trial % 3]
        n3 = dims[2]
        if kind == "identity":
            q = identity_q(n3, n3)
        elif kind == "random":
            q = random_orthonormal(n3, n3, trial)
        else:
            q = dct_matrix(n3)
        for lam in (0.1, 1.0):
            x = prox_q_nuclear(t, q, lam)
            best = prox_objective(x, t, q, lam)
            for _ in range(30):
                delta = rng.standard_normal(dims)
                delta *= 1e-3 / np.linalg.norm(delta)
                assert prox_objective(x + delta, t, q, lam) >= best - 1e-9


def test_prox_nonexpansive():
    rng = np.random.default_rng(14)
    for seed in range(10):
        t1 = rng.standard_normal((3, 3, 4))
        t2 = rng.standard_normal((3, 3, 4))
        q = random_orthonormal(4, 4, seed)
        for lam in (0.1, 1.0):
            lhs = frobenius(prox_q_nuclear(t1, q, lam) - prox_q_nuclear(t2, q, lam))
            assert lhs <= frobenius(t1 - t2) + 1e-10


def test_energy_split():
    rng = np.random.default_rng(15)
    for seed in range(10):
        t = rng.standard_normal((3, 4, 6))
        q = random_orthonormal(6, 3, seed)
        inside = mode3_product(mode3_product(t, q), q.T)
        outside = t - inside
        total = frobenius(inside) ** 2 + frobenius(outside) ** 2
        assert total == pytest.approx(frobenius(t) ** 2, rel=1e-10)


def test_dual_norm_bound():
    rng = np.random.default_rng(16)
    for seed in range(50):
        t = rng.standard_normal((3, 3, 4))
        s = rng.standard_normal((3, 3, 4))
        q = random_orthonormal(4, 4, seed)
        inner = abs(float(np.sum(t * s)))
        assert inner <= q_nuclear_norm(t, q) * q_spectral_norm(s, q) + 1e-9


def test_envelope_gap_single_entry():
    t = np.zeros((3, 3, 3))
    t[0, 0, 0] = 4.0
    assert abs(envelope_gap(t)) <= 1e-9


def test_envelope_gap_random():
    rng = np.random.default_rng(17)
    for _ in range(50):
        assert envelope_gap(rng.standard_normal((4, 4, 4))) >= -1e-9


def test_envelope_gap_equal_singular_values():
    # two orthogonal rank-ones of equal weight in a single slice
    rng = np.random.default_rng(18)
    u, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    t = np.zeros((4, 4, 4))
    t[:, :, 0] = u @ v.T
    assert abs(envelope_gap(t)) <= 1e-9


def test_envelope_gap_zero_tensor():
    with pytest.raises(ValueError):
        envelope_gap(np.zeros((2, 2, 2)))
