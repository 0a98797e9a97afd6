import numpy as np
import pytest

from tqrank.bench import bernoulli_mask, synth_low_qrank
from tqrank.cli import _solver_config, build_parser, main
from tqrank.orth import identity_q, make_transform
from tqrank.solver import SolverConfig
from tqrank.tensor3 import (
    ObservationMask,
    project_omega,
    read_tensor,
    write_mask,
    write_q,
    write_tensor,
)


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def write_instance(tmp_path, n=4, r0=2, p=1.0, seed=3):
    y_true, _ = synth_low_qrank(n, n, n, r0, seed)
    mask = bernoulli_mask(n, n, n, p, seed + 100)
    paths = {name: str(tmp_path / f"{name}.txt")
             for name in ("true", "observed", "mask", "out")}
    write_tensor(paths["true"], y_true)
    write_tensor(paths["observed"], project_omega(y_true, mask))
    write_mask(paths["mask"], mask)
    return y_true, mask, paths


def test_complete_fully_observed(tmp_path, capsys):
    y_true, _, paths = write_instance(tmp_path, p=1.0)
    code, out, err = run_cli(
        ["complete", "--input", paths["observed"], "--mask", paths["mask"],
         "--output", paths["out"]], capsys)
    assert code == 0 and err == ""
    assert out.startswith("converged=true iters=")
    x = read_tensor(paths["out"])
    assert np.max(np.abs(x - y_true)) <= 1e-6


def test_complete_partial_recovers(tmp_path, capsys):
    y_true, _, paths = write_instance(tmp_path, n=10, r0=1, p=0.7, seed=5)
    code, out, _ = run_cli(
        ["complete", "--input", paths["observed"], "--mask", paths["mask"],
         "--output", paths["out"]], capsys)
    assert code == 0
    assert "converged=true" in out
    x = read_tensor(paths["out"])
    rel = np.linalg.norm((x - y_true).ravel()) / np.linalg.norm(y_true.ravel())
    assert rel <= 1e-3


def test_complete_unconverged_still_exits_zero(tmp_path, capsys):
    _, _, paths = write_instance(tmp_path, n=6, r0=2, p=0.8)
    code, out, err = run_cli(
        ["complete", "--input", paths["observed"], "--mask", paths["mask"],
         "--output", paths["out"], "--max-iters", "3"], capsys)
    assert code == 0 and err == ""
    assert out.startswith("converged=false iters=3")


def test_complete_writes_residual_report(tmp_path, capsys):
    _, _, paths = write_instance(tmp_path, n=5, r0=1, p=1.0)
    report = str(tmp_path / "report.csv")
    code, _, _ = run_cli(
        ["complete", "--input", paths["observed"], "--mask", paths["mask"],
         "--output", paths["out"], "--report", report], capsys)
    assert code == 0
    lines = open(report).read().strip().split("\n")
    assert lines[0] == "iter,res_feas,res_x,res_e,mu"
    first = lines[1].split(",")
    assert first[0] == "1"
    # penalty column follows the closed-form schedule from the first step
    assert float(first[4]) == pytest.approx(1e-4 * 1.1, rel=1e-9)
    assert len(lines) == 1 + int(lines[-1].split(",")[0])


def test_complete_rejects_mask_dim_mismatch(tmp_path, capsys):
    _, _, paths = write_instance(tmp_path, n=4)
    other = ObservationMask(np.ones((3, 3, 3), dtype=bool))
    write_mask(paths["mask"], other)
    code, out, err = run_cli(
        ["complete", "--input", paths["observed"], "--mask", paths["mask"],
         "--output", paths["out"]], capsys)
    assert code == 2 and out == ""
    assert err.startswith("tqrank complete: error:") and "dims" in err


def test_complete_rejects_bad_mask_file(tmp_path, capsys):
    _, _, paths = write_instance(tmp_path, n=4)
    bad = tmp_path / "bad_mask.txt"
    bad.write_text("m3 4 4 4 1\n5 1 1\n")
    code, _, err = run_cli(
        ["complete", "--input", paths["observed"], "--mask", str(bad),
         "--output", paths["out"]], capsys)
    assert code == 2
    assert "line 2" in err and "out of range" in err


def test_complete_rejects_skewed_q_file(tmp_path, capsys):
    _, _, paths = write_instance(tmp_path, n=4)
    qpath = str(tmp_path / "q.txt")
    write_q(qpath, np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))
    code, _, err = run_cli(
        ["complete", "--input", paths["observed"], "--mask", paths["mask"],
         "--output", paths["out"], "--q-mode", "file", "--q-file", qpath,
         "--r", "2"], capsys)
    assert code == 2
    assert "not orthonormal" in err


@pytest.mark.parametrize("command", ["complete", "spectrum"])
@pytest.mark.parametrize("q, expected", [
    (np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]), "not orthonormal"),
    (np.eye(5), "does not have n3=4 rows"),
    (np.eye(3), "does not have n3=4 rows"),
], ids=["skewed", "five-rows", "three-rows"])
def test_q_file_faults_rejected_by_both_commands(tmp_path, capsys, command, q, expected):
    _, _, paths = write_instance(tmp_path, n=4)
    qpath = str(tmp_path / "q.txt")
    write_q(qpath, q)
    with pytest.raises(ValueError, match=expected) as exc:
        make_transform("file", 4, path=qpath)
    argv = {"complete": ["--mask", paths["mask"], "--output", paths["out"]], "spectrum": []}
    code, out, err = run_cli(
        [command, "--input", paths["observed"], "--q-mode", "file", "--q-file", qpath]
        + argv[command], capsys)
    assert code == 2 and out == ""
    assert err == f"tqrank {command}: error: {exc.value}\n"


@pytest.mark.parametrize("mode", ["identity", "dct", "random"])
def test_complete_rejects_r_above_n3(tmp_path, capsys, mode):
    _, _, paths = write_instance(tmp_path, n=5)
    code, out, err = run_cli(
        ["complete", "--input", paths["observed"], "--mask", paths["mask"],
         "--output", paths["out"], "--q-mode", mode, "--r", "100"], capsys)
    assert code == 2 and out == ""
    assert err == "tqrank complete: error: need 1 <= r <= n3 = 5, got r=100\n"


def test_complete_rejects_r_not_matching_q_file(tmp_path, capsys):
    _, _, paths = write_instance(tmp_path, n=5)
    qpath = str(tmp_path / "q.txt")
    write_q(qpath, identity_q(5, 2))
    base = ["complete", "--input", paths["observed"], "--mask", paths["mask"],
            "--output", paths["out"], "--q-mode", "file", "--q-file", qpath]
    code, out, err = run_cli(base + ["--r", "4"], capsys)
    assert code == 2 and out == ""
    assert err == ("tqrank complete: error: r=4 does not match the 2 columns "
                   "of the given transform\n")
    # the file's width is the default, and an --r equal to it is accepted
    for extra in ([], ["--r", "2"]):
        code, out, _ = run_cli(base + extra + ["--max-iters", "3"], capsys)
        assert code == 0 and out.startswith("converged=false iters=3")


def test_complete_file_mode_requires_q_file(tmp_path, capsys):
    _, _, paths = write_instance(tmp_path, n=4)
    code, _, err = run_cli(
        ["complete", "--input", paths["observed"], "--mask", paths["mask"],
         "--output", paths["out"], "--q-mode", "file"], capsys)
    assert code == 2
    assert "--q-file" in err


def test_complete_missing_input(tmp_path, capsys):
    _, _, paths = write_instance(tmp_path, n=4)
    code, _, err = run_cli(
        ["complete", "--input", str(tmp_path / "nope.txt"), "--mask", paths["mask"],
         "--output", paths["out"]], capsys)
    assert code == 2
    assert err.startswith("tqrank complete: error:")


def test_complete_fixed_modes_run(tmp_path, capsys):
    y_true, _, paths = write_instance(tmp_path, n=4, p=1.0)
    for mode in ("identity", "dct", "random"):
        code, out, _ = run_cli(
            ["complete", "--input", paths["observed"], "--mask", paths["mask"],
             "--output", paths["out"], "--q-mode", mode], capsys)
        assert code == 0, mode
        assert "converged=true" in out
        assert np.max(np.abs(read_tensor(paths["out"]) - y_true)) <= 1e-6


def test_synth_p_one_observed_equals_true(tmp_path, capsys):
    paths = [str(tmp_path / name) for name in ("t.txt", "o.txt", "m.txt")]
    argv = ["synth", "--n1", "4", "--n2", "3", "--n3", "5", "--r0", "2",
            "--p", "1.0", "--seed", "7",
            "--out-true", paths[0], "--out-observed", paths[1], "--out-mask", paths[2]]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert out == "observed=60 p=1.000000\n"
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()
    again = [str(tmp_path / name) for name in ("t2.txt", "o2.txt", "m2.txt")]
    argv2 = argv[:-6] + ["--out-true", again[0], "--out-observed", again[1],
                         "--out-mask", again[2]]
    code, _, _ = run_cli(argv2, capsys)
    assert code == 0
    for a, b in zip(paths, again):
        assert open(a, "rb").read() == open(b, "rb").read()


def test_synth_rejects_oversized_rank(tmp_path, capsys):
    code, _, err = run_cli(
        ["synth", "--n1", "4", "--n2", "4", "--n3", "5", "--r0", "6", "--p", "0.5",
         "--out-true", str(tmp_path / "t"), "--out-observed", str(tmp_path / "o"),
         "--out-mask", str(tmp_path / "m")], capsys)
    assert code == 2
    assert "r0" in err


def test_grid_single_saturated_cell(tmp_path, capsys):
    out_csv = str(tmp_path / "grid.csv")
    code, out, _ = run_cli(
        ["grid", "--n", "8", "--p-list", "1.0", "--r-list", "1", "--trials", "1",
         "--out", out_csv], capsys)
    assert code == 0
    assert out == f"cells=1 failed=0 out={out_csv}\n"
    lines = open(out_csv).read().strip().split("\n")
    assert lines[0] == "p,r,psnr_mean,psnr_std,trials"
    assert lines[1] == "1.0,1,200.000000,0.000000,1"


def test_grid_two_by_two(tmp_path, capsys):
    out_csv = str(tmp_path / "grid.csv")
    code, _, _ = run_cli(
        ["grid", "--n", "6", "--p-list", "0.8,1.0", "--r-list", "1,2",
         "--trials", "2", "--out", out_csv], capsys)
    assert code == 0
    lines = open(out_csv).read().strip().split("\n")
    assert len(lines) == 5


@pytest.mark.parametrize("argv", [
    ["complete", "--input", "y.t3", "--mask", "m.m3", "--output", "x.t3"],
    ["grid", "--n", "4", "--p-list", "0.5", "--r-list", "1", "--out", "g.csv"],
])
def test_solver_flags_default_to_solver_config(argv):
    assert _solver_config(build_parser().parse_args(argv)) == SolverConfig()


def test_grid_rejects_bad_lists(tmp_path, capsys):
    base = ["grid", "--n", "6", "--trials", "1", "--out", str(tmp_path / "g.csv")]
    code, _, err = run_cli(base + ["--p-list", ",", "--r-list", "1"], capsys)
    assert code == 2 and "non-empty" in err
    code, _, err = run_cli(base + ["--p-list", "0.5,zebra", "--r-list", "1"], capsys)
    assert code == 2 and "malformed" in err
    code, _, err = run_cli(base + ["--p-list", "0.5", "--r-list", "40"], capsys)
    assert code == 2


def test_psnr_command(tmp_path, capsys):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    write_tensor(a, np.ones((2, 2, 2)))
    write_tensor(b, np.ones((2, 2, 2)))
    code, out, _ = run_cli(["psnr", "--x", a, "--ref", b], capsys)
    assert code == 0 and out == "200.00\n"
    write_tensor(a, np.ones((2, 2, 2)) + 0.1)
    code, out, _ = run_cli(["psnr", "--x", a, "--ref", b], capsys)
    assert code == 0 and out == "20.00\n"
    code, _, err = run_cli(["psnr", "--x", str(tmp_path / "nope"), "--ref", b], capsys)
    assert code == 2 and err.startswith("tqrank psnr: error:")


def test_spectrum_rank_one(tmp_path, capsys):
    t = np.zeros((3, 3, 3))
    t[0, 0, 0] = 1.0
    path = str(tmp_path / "t.txt")
    write_tensor(path, t)
    code, out, _ = run_cli(["spectrum", "--input", path, "--q-mode", "identity"], capsys)
    assert code == 0
    values = [float(v) for v in out.split()]
    assert len(values) == 9
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    assert all(v <= 1e-12 for v in values[1:])
    assert values == sorted(values, reverse=True)


def test_spectrum_adaptive_concentrates(tmp_path, capsys):
    y, _ = synth_low_qrank(5, 5, 8, 2, seed=4)
    path = str(tmp_path / "y.txt")
    write_tensor(path, y)
    code, out, _ = run_cli(["spectrum", "--input", path], capsys)
    adaptive = np.array([float(v) for v in out.split()])
    code2, out2, _ = run_cli(["spectrum", "--input", path, "--q-mode", "dct"], capsys)
    dct = np.array([float(v) for v in out2.split()])
    assert code == 0 and code2 == 0
    tol = 1e-8 * adaptive[0]
    # the fitted transform packs the energy into at most 2 slices
    assert np.sum(adaptive > tol) <= 2 * 5
    assert np.sum(adaptive > tol) <= np.sum(dct > tol)
    assert np.sum(adaptive) <= np.sum(dct) + 1e-9


def test_spectrum_top(tmp_path, capsys):
    y, _ = synth_low_qrank(4, 4, 4, 2, seed=6)
    path = str(tmp_path / "y.txt")
    write_tensor(path, y)
    code, out, _ = run_cli(["spectrum", "--input", path, "--top", "3"], capsys)
    assert code == 0
    assert len(out.split()) == 3
    code, _, err = run_cli(["spectrum", "--input", path, "--top", "0"], capsys)
    assert code == 2 and "--top" in err


def test_unknown_flag_and_missing_command(capsys):
    code, _, err = run_cli(["complete", "--bogus", "x"], capsys)
    assert code == 2
    assert err.strip().count("\n") == 0
    code, _, err = run_cli([], capsys)
    assert code == 2
