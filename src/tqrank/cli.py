"""Command-line front end.

Subcommands: complete (solve from files), synth (generate benchmarks),
grid (phase-transition CSV), psnr (compare two tensors), spectrum (dump
sorted transformed singular values).  Bad inputs exit with status 2 and
a one-line message on stderr; a completed-but-unconverged solve still
exits 0 and reports converged=false.
"""

import argparse
import sys

import numpy as np

from .bench import bernoulli_mask, psnr, run_grid, synth_low_qrank, write_grid_csv
from .orth import (EXTERNAL_Q_TOL, dct_matrix, identity_q, orthonormality_defect, pca_q,
                   random_orthonormal, read_q)
from .qnorm import q_singular_values
from .solver import SolverConfig, _mu_at, admm_complete
from .tensor3 import (
    project_omega,
    read_mask,
    read_tensor,
    write_mask,
    write_tensor,
    write_text_atomic,
)


class _Parser(argparse.ArgumentParser):
    # keep diagnostics to a single stderr line (argparse adds usage noise)
    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_solver_flags(sub):
    sub.add_argument("--rho", type=float, default=1.1, help="penalty growth factor (default: %(default)s)")
    sub.add_argument("--mu0", type=float, default=1e-4, help="initial penalty (default: %(default)s)")
    sub.add_argument("--mu-max", type=float, default=1e10, help="penalty cap (default: %(default)s)")
    sub.add_argument("--eps", type=float, default=1e-8, help="convergence tolerance (default: %(default)s)")
    sub.add_argument("--K", type=int, default=1, help="transform refresh period (default: %(default)s)")
    sub.add_argument("--r", type=int, default=None,
                     help="transform column count (default: min(n1*n2, n3))")
    sub.add_argument("--max-iters", type=int, default=500, help="iteration cap (default: %(default)s)")
    sub.add_argument("--seed", type=int, default=0, help="random seed (default: %(default)s)")


def build_parser():
    parser = _Parser(prog="tqrank", description="Low-rank tensor completion with mode-3 transforms.")
    subs = parser.add_subparsers(dest="command", required=True)

    comp = subs.add_parser("complete", parents=[], help="complete a partially observed tensor",
                           description="Complete a tensor read from --input over the mask in --mask.")
    comp.add_argument("--input", required=True, help="observed tensor (t3 format, zero off the mask)")
    comp.add_argument("--mask", required=True, help="observation mask (m3 format)")
    comp.add_argument("--output", required=True, help="where to write the completed tensor")
    comp.add_argument("--q-mode", default="adaptive",
                      choices=["adaptive", "identity", "dct", "random", "file"],
                      help="transform choice (default: %(default)s)")
    comp.add_argument("--q-file", default=None, help="transform file for --q-mode file")
    comp.add_argument("--report", default=None, help="optional per-iteration residual CSV")
    _add_solver_flags(comp)

    syn = subs.add_parser("synth", help="generate a synthetic low-rank benchmark",
                          description="Write ground-truth, observed, and mask files.")
    syn.add_argument("--n1", type=int, required=True, help="first dimension")
    syn.add_argument("--n2", type=int, required=True, help="second dimension")
    syn.add_argument("--n3", type=int, required=True, help="third dimension")
    syn.add_argument("--r0", type=int, required=True, help="generator rank")
    syn.add_argument("--p", type=float, required=True, help="sampling rate in (0, 1]")
    syn.add_argument("--seed", type=int, default=0, help="random seed (default: %(default)s)")
    syn.add_argument("--out-true", required=True, help="ground-truth tensor path")
    syn.add_argument("--out-observed", required=True, help="observed (zero-filled) tensor path")
    syn.add_argument("--out-mask", required=True, help="mask path")

    grid = subs.add_parser("grid", help="run a (p, r0) phase-transition grid",
                           description="Average PSNR per (sampling rate, generator rank) cell.")
    grid.add_argument("--n", type=int, required=True, help="cubic tensor edge length")
    grid.add_argument("--p-list", required=True, help="comma-separated sampling rates")
    grid.add_argument("--r-list", required=True, help="comma-separated generator ranks")
    grid.add_argument("--trials", type=int, default=10, help="trials per cell (default: %(default)s)")
    grid.add_argument("--out", required=True, help="output CSV path")
    _add_solver_flags(grid)

    ps = subs.add_parser("psnr", help="PSNR between two tensor files",
                         description="Print the PSNR of --x against the reference --ref.")
    ps.add_argument("--x", required=True, help="tensor under test")
    ps.add_argument("--ref", required=True, help="reference tensor")

    spec = subs.add_parser("spectrum", help="dump sorted transformed singular values",
                           description="Print the descending singular values of the transformed slices.")
    spec.add_argument("--input", required=True, help="tensor file")
    spec.add_argument("--q-mode", default="adaptive", choices=["adaptive", "identity", "dct", "file"],
                      help="transform choice (default: %(default)s)")
    spec.add_argument("--q-file", default=None, help="transform file for --q-mode file")
    spec.add_argument("--top", type=int, default=None, help="print only the largest N values (default: all)")
    return parser


def _load_q_file(path, n3):
    q = read_q(path)
    if q.shape[0] != n3:
        raise ValueError(f"transform has {q.shape[0]} rows, expected n3={n3}")
    defect = orthonormality_defect(q)
    if defect > EXTERNAL_Q_TOL:
        raise ValueError(f"transform columns are not orthonormal: defect {defect:.3e} > {EXTERNAL_Q_TOL:.1e}")
    return q


def _solver_config(args):
    return SolverConfig(rho=args.rho, mu0=args.mu0, mu_max=args.mu_max, eps=args.eps,
                        K=args.K, r=args.r, max_iters=args.max_iters)


def cmd_complete(args):
    y = read_tensor(args.input)
    mask = read_mask(args.mask)
    if mask.dims != y.shape:
        raise ValueError(f"mask dims {mask.dims} do not match tensor dims {y.shape}")
    n1, n2, n3 = y.shape
    cfg = _solver_config(args)
    if args.q_mode != "adaptive":
        r = args.r if args.r is not None else min(n1 * n2, n3)
        if args.q_mode == "identity":
            q = identity_q(n3, r)
        elif args.q_mode == "dct":
            q = dct_matrix(n3)[:, :r]
        elif args.q_mode == "random":
            q = random_orthonormal(n3, r, args.seed)
        else:
            if args.q_file is None:
                raise ValueError("--q-mode file requires --q-file")
            q = _load_q_file(args.q_file, n3)
        cfg.q_mode = "fixed"
        cfg.q_fixed = q

    x, report = admm_complete(y, mask, cfg)
    write_tensor(args.output, x)
    if args.report:
        lines = ["iter,res_feas,res_x,res_e,mu"]
        for k in range(report.iterations):
            lines.append(f"{k + 1},{report.res_feas[k]:.9e},{report.res_x[k]:.9e},"
                         f"{report.res_e[k]:.9e},{_mu_at(cfg, k + 1):.9e}")
        write_text_atomic(args.report, "\n".join(lines) + "\n")
    flag = "true" if report.converged else "false"
    print(f"converged={flag} iters={report.iterations} residual={report.res_feas[-1]:.6e}")
    return 0


def cmd_synth(args):
    y_true, _ = synth_low_qrank(args.n1, args.n2, args.n3, args.r0, args.seed)
    # separate mask stream so the mask does not alias the generator draws
    mask_seed = int(np.random.SeedSequence([args.seed, 1]).generate_state(1)[0])
    mask = bernoulli_mask(args.n1, args.n2, args.n3, args.p, mask_seed)
    write_tensor(args.out_true, y_true)
    write_tensor(args.out_observed, project_omega(y_true, mask))
    write_mask(args.out_mask, mask)
    print(f"observed={mask.count} p={mask.rate:.6f}")
    return 0


def _parse_list(text, kind, what):
    items = [tok for tok in text.split(",") if tok.strip()]
    if not items:
        raise ValueError(f"{what} must be a non-empty comma-separated list")
    try:
        return [kind(tok) for tok in items]
    except ValueError:
        raise ValueError(f"malformed {what}: {text!r}") from None


def cmd_grid(args):
    p_values = _parse_list(args.p_list, float, "--p-list")
    r_values = _parse_list(args.r_list, int, "--r-list")
    grid = run_grid(args.n, p_values, r_values, args.trials, _solver_config(args), args.seed)
    write_grid_csv(args.out, grid)
    cells = grid.failed.size
    print(f"cells={cells} failed={int(grid.failed.sum())} out={args.out}")
    return 0


def cmd_psnr(args):
    x = read_tensor(args.x)
    ref = read_tensor(args.ref)
    print(f"{psnr(x, ref):.2f}")
    return 0


def cmd_spectrum(args):
    t = read_tensor(args.input)
    n1, n2, n3 = t.shape
    if args.q_mode == "adaptive":
        q = pca_q(t, min(n1 * n2, n3))
    elif args.q_mode == "identity":
        q = identity_q(n3, n3)
    elif args.q_mode == "dct":
        q = dct_matrix(n3)
    else:
        if args.q_file is None:
            raise ValueError("--q-mode file requires --q-file")
        q = _load_q_file(args.q_file, n3)
    values = np.sort(q_singular_values(t, q).ravel())[::-1]
    if args.top is not None:
        if args.top < 1:
            raise ValueError(f"--top must be >= 1, got {args.top}")
        values = values[:args.top]
    for v in values:
        print(f"{v:.12e}")
    return 0


_COMMANDS = {
    "complete": cmd_complete,
    "synth": cmd_synth,
    "grid": cmd_grid,
    "psnr": cmd_psnr,
    "spectrum": cmd_spectrum,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"tqrank {args.command}: error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
