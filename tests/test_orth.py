import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import right_singular_basis_thin_svd
from tqrank.orth import (
    ORTHONORMALITY_TOL,
    check_orthonormal,
    dct_matrix,
    fix_signs,
    identity_q,
    l21_of_unfolding,
    make_transform,
    orthonormality_defect,
    pca_q,
    random_orthonormal,
    right_singular_basis,
)
from tqrank.tensor3 import (
    FormatError,
    fold3,
    format_q,
    frobenius,
    mode3_product,
    read_q,
    unfold3,
    write_q,
)


def assert_valid_transform(q):
    assert orthonormality_defect(q) <= ORTHONORMALITY_TOL
    # sign convention: largest-magnitude entry of each column positive
    rows = np.argmax(np.abs(q), axis=0)
    assert np.all(q[rows, np.arange(q.shape[1])] > 0)


def test_fix_signs_tie_break():
    # tie between rows 0 and 2; the first (smallest row) decides the sign
    q = np.array([[-0.6], [0.2], [0.6]])
    fixed = fix_signs(q)
    assert fixed[0, 0] == 0.6
    assert np.array_equal(fixed, -q)


def test_identity_q():
    assert np.array_equal(identity_q(3, 3), np.eye(3))
    assert np.array_equal(identity_q(3, 2), np.eye(3)[:, :2])
    with pytest.raises(ValueError):
        identity_q(3, 4)
    with pytest.raises(ValueError):
        identity_q(3, 0)


def test_identity_q_truncates_slices():
    t = np.random.default_rng(0).standard_normal((2, 3, 4))
    g = mode3_product(t, identity_q(4, 2))
    assert np.array_equal(g, t[:, :, :2])


def test_pca_q_diagonal_unfolding():
    # unfold3 = [[2, 0], [0, 1]] for dims 1x2x2
    t = fold3(np.array([[2.0, 0.0], [0.0, 1.0]]), (1, 2, 2))
    q = pca_q(t, 2)
    assert np.allclose(q, np.eye(2), atol=1e-12)
    assert_valid_transform(q)


def test_pca_q_identical_slices():
    rng = np.random.default_rng(1)
    slab = rng.standard_normal((3, 4))
    t = np.repeat(slab[:, :, None], 5, axis=2)
    q = pca_q(t, 1)
    assert np.allclose(q, np.full((5, 1), 1 / np.sqrt(5)), atol=1e-12)


def test_pca_q_full_subspace_reconstructs():
    # oracle: the full right-singular basis reproduces t through Q Q^T
    rng = np.random.default_rng(2)
    t = rng.standard_normal((3, 3, 4))
    q = pca_q(t, 4)
    back = mode3_product(mode3_product(t, q), q.T)
    assert frobenius(back - t) <= 1e-8 * frobenius(t)
    assert_valid_transform(q)


def test_pca_q_zero_tensor_and_range():
    assert np.array_equal(pca_q(np.zeros((2, 2, 3)), 2), np.eye(3)[:, :2])
    with pytest.raises(ValueError):
        pca_q(np.zeros((2, 2, 3)), 4)
    with pytest.raises(ValueError):
        pca_q(np.zeros((1, 1, 3)), 2)  # min(n1*n2, n3) = 1


def test_pca_q_descending_order():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((4, 4, 6))
    q = pca_q(t, 6)
    norms = np.linalg.norm(unfold3(t) @ q, axis=0)
    assert np.all(np.diff(norms) <= 1e-12)


def gesdd_qr_threshold(cols):
    """LAPACK gesdd factors A = QR first, and takes V from R, from this many rows on."""
    return 11 * cols // 6


@st.composite
def tall_matrices(draw):
    """(m, r) with rows >= gesdd_qr_threshold(cols): rank-deficient or
    integer-valued (tied singular values), with zero columns, in either
    memory order, scaled by 2^-400, 1 or 2^400."""
    cols = draw(st.integers(1, 40))
    rows = draw(st.integers(gesdd_qr_threshold(cols), gesdd_qr_threshold(cols) + 30))
    rank = draw(st.integers(0, cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        m = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    else:
        m = rng.integers(-2, 3, (rows, rank)) @ rng.integers(-2, 3, (rank, cols)) * 1.0
    m[:, rng.random(cols) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    m = np.ldexp(m, draw(st.sampled_from([-400, 0, 400])))
    if draw(st.booleans()):
        m = np.asfortranarray(m)
    return m, draw(st.integers(1, cols))


@settings(deadline=None)
@given(tall_matrices())
def test_right_singular_basis_bytes_equal_the_thin_svd_when_tall(case):
    m, r = case
    got, want = right_singular_basis(m, r), right_singular_basis_thin_svd(m, r)
    assert got.tobytes() == want.tobytes()
    assert got.strides == want.strides  # matmuls with Q round by its layout


@st.composite
def short_matrices_with_distinct_spectrum(draw):
    """(m, r) with rows < gesdd_qr_threshold(cols) and singular values
    min(rows, cols), ..., 2, 1."""
    cols = draw(st.integers(2, 30))
    rows = draw(st.integers(1, gesdd_qr_threshold(cols) - 1))
    k = min(rows, cols)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    return (u * np.arange(k, 0, -1.0)) @ v.T, draw(st.integers(1, k))


@settings(deadline=None)
@given(short_matrices_with_distinct_spectrum())
def test_right_singular_basis_matches_the_thin_svd_when_short(case):
    m, r = case
    got, want = right_singular_basis(m, r), right_singular_basis_thin_svd(m, r)
    assert np.max(np.abs(got @ got.T - want @ want.T)) <= 1e-12
    # the same signs: column-wise agreement
    assert np.max(np.abs(got - want)) <= 1e-12
    assert_valid_transform(got)


def test_random_orthonormal():
    assert np.array_equal(random_orthonormal(1, 1, 0), np.array([[1.0]]))
    for seed in range(5):
        q = random_orthonormal(8, 3, seed)
        assert q.shape == (8, 3)
        assert_valid_transform(q)
    assert np.array_equal(random_orthonormal(8, 3, 0), random_orthonormal(8, 3, 0))
    assert not np.array_equal(random_orthonormal(8, 3, 0), random_orthonormal(8, 3, 1))
    with pytest.raises(ValueError):
        random_orthonormal(3, 4, 0)


def test_dct_matrix_small_cases():
    assert np.array_equal(dct_matrix(1), np.array([[1.0]]))
    expected = np.sqrt(0.5) * np.array([[1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(dct_matrix(2), expected, atol=1e-15)
    with pytest.raises(ValueError):
        dct_matrix(0)


def test_dct_matrix_orthonormal_up_to_16():
    for n in range(1, 17):
        q = dct_matrix(n)
        assert orthonormality_defect(q) <= 1e-10
        assert_valid_transform(q)


def test_check_orthonormal():
    check_orthonormal(np.eye(3))
    with pytest.raises(ValueError):
        check_orthonormal(np.eye(3) * 1.001)
    with pytest.raises(ValueError):
        check_orthonormal(np.ones((2, 3)))


def test_l21_zero_and_dims():
    assert l21_of_unfolding(np.zeros((2, 2, 3)), np.eye(3)) == 0.0
    with pytest.raises(ValueError):
        l21_of_unfolding(np.zeros((2, 2, 3)), np.eye(4))


def test_l21_under_pca_equals_top_singular_values():
    # oracle: direct SVD of the unfolding
    rng = np.random.default_rng(4)
    for _ in range(10):
        t = rng.standard_normal((3, 4, 5))
        sigma = np.linalg.svd(unfold3(t), compute_uv=False)
        for r in (1, 3, 5):
            got = l21_of_unfolding(t, pca_q(t, r))
            want = sigma[:r].sum()
            assert got == pytest.approx(want, rel=1e-8)


def test_l21_pca_beats_rotations():
    # 200 rotated competitors spanning the same row space
    rng = np.random.default_rng(5)
    t = rng.standard_normal((3, 4, 5))
    r = 5
    q = pca_q(t, r)
    base = l21_of_unfolding(t, q)
    for _ in range(200):
        rot, _ = np.linalg.qr(rng.standard_normal((r, r)))
        assert l21_of_unfolding(t, q @ rot) >= base - 1e-9


def test_slice_norm_variance_duality():
    # squared slice norms have a fixed sum over square transforms; the
    # data-adaptive transform concentrates them (maximal variance)
    rng = np.random.default_rng(6)
    t = rng.standard_normal((4, 4, 5))
    q_star = pca_q(t, 5)
    total = np.linalg.norm(unfold3(t)) ** 2

    def slice_norms(q):
        return np.linalg.norm(unfold3(t) @ q, axis=0)

    var_star = np.var(slice_norms(q_star))
    for seed in range(200):
        q = random_orthonormal(5, 5, seed)
        a = slice_norms(q)
        assert np.sum(a ** 2) == pytest.approx(total, rel=1e-10)
        assert var_star >= np.var(a) - 1e-9


def test_q_format_round_trip(tmp_path):
    q = random_orthonormal(6, 3, 7)
    path = tmp_path / "q.q1"
    write_q(path, q)
    assert np.array_equal(read_q(path), q)
    assert format_q(q).splitlines()[0] == "q 6 3"


def test_q_format_column_major(tmp_path):
    q = np.array([[1.0, 3.0], [2.0, 4.0]])
    text = format_q(q)
    flat = [float(v) for line in text.splitlines()[1:] for v in line.split()]
    assert flat == [1.0, 2.0, 3.0, 4.0]


def test_q_parser_rejects_malformed(tmp_path):
    path = tmp_path / "bad.q1"
    path.write_text("q 2 3\n1 0 0 1 0 0\n")
    with pytest.raises(FormatError):
        read_q(path)
    path.write_text("q 2 2\n1 0 0\n")
    with pytest.raises(FormatError, match="expected 4"):
        read_q(path)
    path.write_text("q 2 1\n1 inf\n")
    with pytest.raises(FormatError, match="non-finite"):
        read_q(path)


def test_make_transform_builds_each_mode(tmp_path):
    assert np.array_equal(make_transform("identity", 5, 3), identity_q(5, 3))
    assert np.array_equal(make_transform("dct", 5), dct_matrix(5))
    assert np.array_equal(make_transform("dct", 5, 2), dct_matrix(5)[:, :2])
    assert np.array_equal(make_transform("random", 5, 3, seed=7), random_orthonormal(5, 3, 7))
    path = str(tmp_path / "q.txt")
    q = random_orthonormal(5, 2, 1)
    write_q(path, q)
    assert np.array_equal(make_transform("file", 5, path=path), q)
    assert np.array_equal(make_transform("file", 5, 2, path=path), q)
    # a q file within the external tolerance is accepted as written
    write_q(path, q * (1 + 1e-8))
    assert np.array_equal(make_transform("file", 5, path=path), q * (1 + 1e-8))


def test_make_transform_rejects_bad_widths_and_files(tmp_path):
    for mode in ("identity", "dct", "random"):
        for r in (0, 6):
            with pytest.raises(ValueError, match=f"need 1 <= r <= n3 = 5, got r={r}"):
                make_transform(mode, 5, r)
    path = str(tmp_path / "q.txt")
    write_q(path, random_orthonormal(5, 2, 1))
    with pytest.raises(ValueError, match="r=4 does not match the 2 columns"):
        make_transform("file", 5, 4, path=path)
    with pytest.raises(ValueError, match=r"shape \(5, 2\) does not have n3=4 rows"):
        make_transform("file", 4, path=path)
    write_q(path, np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not orthonormal"):
        make_transform("file", 3, path=path)
    with pytest.raises(ValueError, match="unknown transform mode"):
        make_transform("adaptive", 5)
