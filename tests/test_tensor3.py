import os
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tqrank.orth import random_orthonormal
from tqrank.tensor3 import (
    FormatError,
    ObservationMask,
    fold3,
    format_mask,
    format_q,
    format_tensor,
    frobenius,
    inf_norm_diff,
    mode3_product,
    project_omega,
    project_omega_complement,
    read_mask,
    read_q,
    read_tensor,
    unfold3,
    validate_tensor,
    write_mask,
    write_q,
    write_tensor,
)


def random_tensor(dims, seed):
    return np.random.default_rng(seed).standard_normal(dims)


def test_validate_rejects_nonfinite_and_wrong_order():
    with pytest.raises(ValueError):
        validate_tensor(np.full((2, 2, 2), np.nan))
    with pytest.raises(ValueError):
        validate_tensor(np.array([[np.inf]])[None])  # still 3-order, inf entry
    with pytest.raises(ValueError):
        validate_tensor(np.zeros((2, 2)))


def test_unfold3_scalar_slices():
    t = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3)
    assert np.array_equal(unfold3(t), np.array([[1.0, 2.0, 3.0]]))


def test_unfold3_zero():
    assert np.array_equal(unfold3(np.zeros((2, 3, 4))), np.zeros((6, 4)))


def test_unfold3_column_layout():
    # row index of entry (i, j, k) is i + j*n1 (0-based), column index k
    t = random_tensor((3, 2, 4), 0)
    m = unfold3(t)
    for k in range(4):
        assert np.array_equal(m[:, k], t[:, :, k].ravel(order="F"))


def test_fold3_scalar_slices():
    m = np.array([[1.0, 2.0, 3.0]])
    t = fold3(m, (1, 1, 3))
    assert t.shape == (1, 1, 3)
    assert np.array_equal(t[0, 0], np.array([1.0, 2.0, 3.0]))


def test_fold3_rejects_bad_shape():
    with pytest.raises(ValueError):
        fold3(np.zeros((5, 4)), (2, 3, 4))


def test_round_trip_bit_exact():
    for seed in range(5):
        t = random_tensor((2, 3, 4), seed)
        assert np.array_equal(fold3(unfold3(t), t.shape), t)
        m = np.random.default_rng(100 + seed).standard_normal((6, 4))
        assert np.array_equal(unfold3(fold3(m, (2, 3, 4))), m)


def test_mode3_identity_and_zero():
    t = random_tensor((2, 3, 4), 1)
    assert np.array_equal(mode3_product(t, np.eye(4)), t)
    assert np.array_equal(mode3_product(np.zeros((2, 3, 4)), np.eye(4)[:, :2]),
                          np.zeros((2, 3, 2)))


def test_mode3_rejects_mismatched_rows():
    with pytest.raises(ValueError):
        mode3_product(random_tensor((2, 3, 4), 2), np.eye(3))


def test_mode3_isometry_and_linearity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t1 = rng.standard_normal((2, 2, 3))
        t2 = rng.standard_normal((2, 2, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a, b = rng.standard_normal(2)
        lhs = mode3_product(a * t1 + b * t2, q)
        rhs = a * mode3_product(t1, q) + b * mode3_product(t2, q)
        scale = max(frobenius(lhs), 1.0)
        assert frobenius(lhs - rhs) <= 1e-12 * scale
        assert abs(frobenius(mode3_product(t1, q)) - frobenius(t1)) <= 1e-10 * frobenius(t1)


def test_frobenius_values():
    assert frobenius(np.zeros((2, 2, 2))) == 0.0
    assert frobenius(np.ones((2, 2, 2))) == pytest.approx(np.sqrt(8), abs=1e-15)


def test_frobenius_slicewise_energy():
    # oracle: accumulate squared slice norms of the transformed tensor
    rng = np.random.default_rng(4)
    t = rng.standard_normal((3, 4, 5))
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    g = mode3_product(t, q)
    total = sum(np.linalg.norm(g[:, :, i]) ** 2 for i in range(5))
    assert frobenius(t) ** 2 == pytest.approx(total, rel=1e-10)


def test_mask_basics():
    mask = ObservationMask.from_indices((2, 2, 2), [(1, 1, 1)])
    assert mask.count == 1
    assert mask.rate == pytest.approx(1 / 8)
    assert mask.indices() == [(1, 1, 1)]
    t = np.ones((2, 2, 2))
    proj = project_omega(t, mask)
    assert frobenius(proj) == 1.0
    assert proj[0, 0, 0] == 1.0


def test_mask_rejects_bad_indices():
    with pytest.raises(ValueError):
        ObservationMask.from_indices((2, 2, 2), [(3, 1, 1)])
    with pytest.raises(ValueError):
        ObservationMask.from_indices((2, 2, 2), [(1, 1, 1), (1, 1, 1)])


def test_mask_indices_sorted():
    mask = ObservationMask.from_indices((2, 2, 2), [(2, 1, 2), (1, 2, 1), (1, 1, 2)])
    assert mask.indices() == [(1, 1, 2), (1, 2, 1), (2, 1, 2)]


def test_mask_values_immutable():
    mask = ObservationMask.from_indices((2, 2, 2), [(1, 1, 1)])
    with pytest.raises(ValueError):
        mask.values[0, 0, 0] = False


def test_projection_partition_and_idempotence():
    rng = np.random.default_rng(5)
    for seed in range(10):
        t = rng.standard_normal((3, 2, 4))
        mask = ObservationMask(rng.random((3, 2, 4)) < 0.4)
        on = project_omega(t, mask)
        off = project_omega_complement(t, mask)
        assert np.array_equal(on + off, t)
        assert np.array_equal(project_omega(on, mask), on)


def test_projection_empty_and_full():
    t = random_tensor((2, 2, 2), 6)
    empty = ObservationMask(np.zeros((2, 2, 2), dtype=bool))
    full = ObservationMask.full((2, 2, 2))
    assert np.array_equal(project_omega(t, empty), np.zeros_like(t))
    assert np.array_equal(project_omega(t, full), t)
    assert np.array_equal(project_omega_complement(t, empty), t)
    assert np.array_equal(project_omega_complement(t, full), np.zeros_like(t))


def test_projection_dim_mismatch():
    mask = ObservationMask.full((2, 2, 2))
    with pytest.raises(ValueError):
        project_omega(np.zeros((2, 2, 3)), mask)


def test_inf_norm_diff():
    a = random_tensor((2, 3, 2), 7)
    assert inf_norm_diff(a, a) == 0.0
    assert inf_norm_diff(np.zeros((2, 2, 2)), np.ones((2, 2, 2))) == 1.0
    b = a.copy()
    b[1, 2, 0] += 1e-9
    assert inf_norm_diff(a, b) == pytest.approx(1e-9, rel=1e-6)
    with pytest.raises(ValueError):
        inf_norm_diff(a, np.zeros((2, 2, 2)))


# ---------------------------------------------------------------------------
# file formats

def test_tensor_format_round_trip(tmp_path):
    t = random_tensor((3, 4, 5), 8)
    path = tmp_path / "t.t3"
    write_tensor(path, t)
    assert np.array_equal(read_tensor(path), t)
    # writer output is deterministic
    assert format_tensor(t) == format_tensor(t.copy())


def test_tensor_format_storage_order(tmp_path):
    # values appear i fastest, then j, then k
    t = np.arange(1.0, 9.0).reshape(2, 2, 2, order="F")
    text = format_tensor(t)
    header, *rows = text.strip().split("\n")
    assert header == "t3 2 2 2"
    flat = [float(v) for row in rows for v in row.split()]
    assert flat == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]


def test_tensor_parser_rejects_malformed(tmp_path):
    path = tmp_path / "bad.t3"
    path.write_text("t3 2 2\n1 2 3 4\n")
    with pytest.raises(FormatError):
        read_tensor(path)
    path.write_text("t3 2 2 2\n1 2 3\n")
    with pytest.raises(FormatError, match="expected 8"):
        read_tensor(path)
    path.write_text("t3 1 1 2\n1 2 3\n")
    with pytest.raises(FormatError, match="more than"):
        read_tensor(path)
    path.write_text("t3 1 1 2\n1 nan\n")
    with pytest.raises(FormatError, match="non-finite"):
        read_tensor(path)
    path.write_text("t3 1 1 2\n1 abc\n")
    with pytest.raises(FormatError, match="bad float"):
        read_tensor(path)


def test_mask_format_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    mask = ObservationMask(rng.random((3, 4, 2)) < 0.5)
    path = tmp_path / "m.m3"
    write_mask(path, mask)
    back = read_mask(path)
    assert np.array_equal(back.values, mask.values)
    assert format_mask(back) == format_mask(mask)


def test_mask_parser_rejects_malformed(tmp_path):
    path = tmp_path / "bad.m3"
    path.write_text("m3 4 4 4 1\n5 1 1\n")
    with pytest.raises(FormatError, match=r"line 2.*out of range"):
        read_mask(path)
    path.write_text("m3 2 2 2 2\n1 1 1\n1 1 1\n")
    with pytest.raises(FormatError, match=r"line 3.*duplicate"):
        read_mask(path)
    path.write_text("m3 2 2 2 2\n1 1 1\n")
    with pytest.raises(FormatError, match="expected 2"):
        read_mask(path)
    path.write_text("m3 2 2 2 1\n1 1 1\n2 2 2\n")
    with pytest.raises(FormatError, match="more than 1"):
        read_mask(path)
    path.write_text("m3 2 2 2 1\n1 1\n")
    with pytest.raises(FormatError, match="expected 'i j k'"):
        read_mask(path)


def test_writers_give_files_the_umask_mode(tmp_path):
    old = os.umask(0o022)
    try:
        write_tensor(tmp_path / "t.t3", random_tensor((2, 2, 2), 1))
        write_mask(tmp_path / "m.m3", ObservationMask(np.ones((2, 2, 2), dtype=bool)))
        write_q(tmp_path / "q.q", np.eye(2))
    finally:
        os.umask(old)
    for name in ("t.t3", "m.m3", "q.q"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644, name


def test_writers_never_read_the_process_umask(tmp_path, monkeypatch):
    # reading the umask means setting it, which races with writes on other threads
    def umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", umask)
    t = random_tensor((2, 2, 2), 1)
    mask = ObservationMask.from_indices((2, 2, 2), [(1, 2, 1)])
    write_tensor(tmp_path / "t.t3", t)
    write_mask(tmp_path / "m.m3", mask)
    write_q(tmp_path / "q.q", np.eye(2))
    assert np.array_equal(read_tensor(tmp_path / "t.t3"), t)
    assert np.array_equal(read_mask(tmp_path / "m.m3").values, mask.values)
    assert np.array_equal(read_q(tmp_path / "q.q"), np.eye(2))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.m3", "q.q", "t.t3"]


# exact bytes of each format, pinned so a refactor of the writers cannot drift
def test_tensor_format_golden_bytes(tmp_path):
    t = np.array([1.0, -0.0, 0.1, 1e308, 5e-324, -1 / 3, 2.5e-310, -1e308]).reshape(2, 2, 2, order="F")
    write_tensor(tmp_path / "t.t3", t)
    assert (tmp_path / "t.t3").read_bytes() == (
        b"t3 2 2 2\n1.0 -0.0\n0.1 1e+308\n5e-324 -0.3333333333333333\n2.5e-310 -1e+308\n")


def test_mask_format_golden_bytes(tmp_path):
    mask = ObservationMask.from_indices((2, 1, 3), [(2, 1, 3), (1, 1, 1), (2, 1, 1)])
    write_mask(tmp_path / "m.m3", mask)
    assert (tmp_path / "m.m3").read_bytes() == b"m3 2 1 3 3\n1 1 1\n2 1 1\n2 1 3\n"


def test_q_format_golden_bytes(tmp_path):
    write_q(tmp_path / "q.q", np.array([[0.6, -0.8], [0.8, 0.6], [0.0, -0.0]]))
    assert (tmp_path / "q.q").read_bytes() == b"q 3 2\n0.6 0.8 0.0\n-0.8 0.6 -0.0\n"


# writer -> reader -> writer must reproduce the bytes and the values
FINITE = st.one_of(st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e308, -1e308]),
                   st.floats(allow_nan=False, allow_infinity=False))
SHAPES = array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=4)
ROUND_TRIP = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def round_trip(tmp_path, write, read, value):
    write(tmp_path / "a", value)
    back = read(tmp_path / "a")
    write(tmp_path / "b", back)
    assert (tmp_path / "b").read_bytes() == (tmp_path / "a").read_bytes()
    return back


@ROUND_TRIP
@given(t=arrays(float, SHAPES, elements=FINITE))
@example(t=np.full((1, 1, 1), -0.0))
def test_tensor_format_round_trip_property(tmp_path, t):
    back = round_trip(tmp_path, write_tensor, read_tensor, t)
    assert np.array_equal(back, t) and np.array_equal(np.signbit(back), np.signbit(t))


@ROUND_TRIP
@given(values=SHAPES.flatmap(lambda shape: st.one_of(
    st.just(np.zeros(shape, dtype=bool)), st.just(np.ones(shape, dtype=bool)), arrays(bool, shape))))
def test_mask_format_round_trip_property(tmp_path, values):
    back = round_trip(tmp_path, write_mask, read_mask, ObservationMask(values))
    assert np.array_equal(back.values, values)


@ROUND_TRIP
@given(q=st.integers(1, 5).flatmap(lambda n: st.integers(1, n).flatmap(
    lambda r: arrays(float, (n, r), elements=FINITE))))
@example(q=random_orthonormal(5, 2, 1))
@example(q=random_orthonormal(4, 4, 2))
def test_q_format_round_trip_property(tmp_path, q):
    back = round_trip(tmp_path, write_q, read_q, q)
    assert np.array_equal(back, q) and np.array_equal(np.signbit(back), np.signbit(q))


@settings(deadline=None)
@given(t=arrays(float, SHAPES, elements=FINITE))
def test_unfold3_fold3_round_trip_property(t):
    m = unfold3(t)
    assert m.shape == (t.shape[0] * t.shape[1], t.shape[2])
    back = fold3(m, t.shape)
    assert np.array_equal(back, t) and np.array_equal(np.signbit(back), np.signbit(t))
    assert np.array_equal(unfold3(back), m)


@settings(deadline=None)
@given(t=arrays(float, SHAPES, elements=FINITE))
def test_unfold3_entry_lands_in_row_i_plus_j_n1_property(t):
    i, j, k = np.indices(t.shape)
    assert np.array_equal(unfold3(t)[i + j * t.shape[0], k], t)


@settings(deadline=None)
@given(dims=SHAPES, shape=st.tuples(st.integers(0, 20), st.integers(0, 5)))
def test_fold3_rejects_a_shape_that_does_not_fit_property(dims, shape):
    n1, n2, n3 = dims
    if shape == (n1 * n2, n3):
        assert fold3(np.zeros(shape), dims).shape == dims
    else:
        with pytest.raises(ValueError, match="cannot fold shape"):
            fold3(np.zeros(shape), dims)
