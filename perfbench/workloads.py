"""The benchmark's workloads: inputs made from a seed, one pass, checks.

A pass runs every operation of a workload once; an operation is one
``admm_complete`` call, one grid trial or one CLI command.  It fails if
it raises, exits non-zero or ends with converged=false.  Every pass of
a run works on the same inputs and must give bit-identical outputs,
which ``Pass.digest`` records.  Checks run on the first pass, outside the
timed section, with the code in ``oracle`` and never with the program's
own helpers.
"""

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np

import oracle
import spans
from tqrank import (ObservationMask, SolverConfig, admm_complete, fixed_q_complete,
                    grid_to_csv, run_grid)

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_TIMEOUT_S = 120


class Pass:
    """What one pass did: operation counts, timing and an output digest."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.errors = []             # one message per failed operation
        self.digest = hashlib.sha256()
        self.iterations = 0          # solver iterations, from the solver's reports
        self.adaptive_iterations = 0  # iterations of solves with a refreshed transform
        self.wall_s = 0.0
        self.op_s = {}               # operation -> its wall time (a CLI command: its subprocess)
        self.startup_s = []          # traced CLI only: spawn to main()
        self.outputs = []            # raw outputs for the checks

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext({})


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


class _Solves:
    """Library solves of prepared instances, one operation each."""

    hooks = spans.SOLVER_HOOKS
    min_passes = 1
    adaptive = True

    def __init__(self, seed, key, n, cells):
        self.instances = []
        for i, (p, r0) in enumerate(cells):
            rng = _rng(seed, key, i)
            truth = oracle.low_rank_tensor(n, r0, rng)
            mask = oracle.bernoulli_mask(n, p, rng)
            y = np.where(mask, truth, 0.0)
            self.instances.append((f"p={p} r0={r0}", truth, mask, y, ObservationMask(mask)))

    def solve(self, y, mask):
        raise NotImplementedError

    def run(self, tracer=None):
        result = Pass()
        start = time.perf_counter()
        for label, _, _, y, mask in self.instances:
            result.ops += 1
            op_start = time.perf_counter()
            try:
                with _span(tracer, "solver.solve"):
                    x, report = self.solve(y, mask)
            except Exception as exc:  # an operation that raises counts as failed
                result.fail(f"{label}: {type(exc).__name__}: {exc}")
                continue
            finally:
                result.op_s[label] = time.perf_counter() - op_start
            if not report.converged:
                result.fail(f"{label}: not converged after {report.iterations} iterations")
            result.iterations += report.iterations
            if self.adaptive:
                result.adaptive_iterations += report.iterations
            result.digest.update(x.tobytes())
            result.digest.update(report.q_final.tobytes())
            result.outputs.append((label, x, report.q_final))
        result.wall_s = time.perf_counter() - start
        return result

    def check(self, first, seed):
        errors, psnrs = [], []
        truths = {label: (truth, mask) for label, truth, mask, _, _ in self.instances}
        rng = _rng(seed, 99)
        for label, x, q in first.outputs:
            truth, mask = truths[label]
            errors += oracle.check_completion(x, truth, mask, q, rng, label)
            psnrs.append(oracle.clipped_psnr(x, truth))
        return errors, psnrs


class AdaptiveN30(_Solves):
    CELLS = [(0.7, 3), (0.3, 12), (0.9, 24)]
    ANCHOR = "p=0.7 r0=3"      # the exact-recovery cell
    ANCHOR_MIN_DB = 40.0

    def __init__(self, seed, workdir):
        super().__init__(seed, 1, 30, self.CELLS)

    def solve(self, y, mask):
        return admm_complete(y, mask, SolverConfig())

    def check(self, first, seed):
        errors, psnrs = super().check(first, seed)
        truths = {label: truth for label, truth, *_ in self.instances}
        for label, x, _ in first.outputs:
            value = oracle.psnr(x, truths[label])
            if label.endswith(self.ANCHOR) and value < self.ANCHOR_MIN_DB:
                errors.append(f"{label}: PSNR {value:.2f} dB < {self.ANCHOR_MIN_DB} dB")
        return errors, psnrs


class DctN60(_Solves):
    CELLS = [(0.7, 3)]
    adaptive = False

    def __init__(self, seed, workdir):
        super().__init__(seed, 2, 60, self.CELLS)
        self.q = oracle.dct2(60)

    def solve(self, y, mask):
        return fixed_q_complete(y, mask, self.q, SolverConfig())


class GridN20:
    """run_grid at n=20, default config; each trial is one operation."""

    N = 20
    P = [0.5, 0.7, 0.9]
    R = [3, 6]
    TRIALS = 1
    hooks = spans.SOLVER_HOOKS + spans.GRID_HOOKS
    min_passes = 2             # two grids with the same seed must agree byte for byte

    def __init__(self, seed, workdir):
        self.grid_seed = int(np.random.SeedSequence([seed, 3]).generate_state(1)[0])

    def run(self, tracer=None):
        result = Pass()
        trials = []
        marks = [time.perf_counter()]

        def on_cell(pi, ri, trial, value, report):
            marks.append(time.perf_counter())
            trials.append((pi, ri, trial, value, report))

        start = marks[0]
        try:
            with _span(tracer, "bench.run_grid"):
                grid = run_grid(self.N, self.P, self.R, self.TRIALS, SolverConfig(),
                                self.grid_seed, on_cell=on_cell)
        except Exception as exc:  # the whole grid failed: every trial fails with it
            grid = None
            total = len(self.P) * len(self.R) * self.TRIALS
            result.ops += total
            for _ in range(total):
                result.fail(f"run_grid: {type(exc).__name__}: {exc}")
        result.wall_s = time.perf_counter() - start
        # a trial's time runs from the previous trial's on_cell to its own
        for (pi, ri, trial, *_), begin, end in zip(trials, marks, marks[1:]):
            result.op_s[f"trial {pi},{ri},{trial}"] = end - begin
        result.op_s["after the last trial"] = start + result.wall_s - marks[-1]
        if grid is None:
            return result
        for pi, ri, trial, value, report in trials:
            result.ops += 1
            label = f"p={self.P[pi]} r0={self.R[ri]} trial={trial}"
            if report is None:
                result.fail(f"{label}: trial raised (run_grid records no cause)")
                continue
            if not report.converged:
                result.fail(f"{label}: not converged after {report.iterations} iterations")
            result.iterations += report.iterations
            result.adaptive_iterations += report.iterations
        csv = grid_to_csv(grid)
        values = [(pi, ri, trial, float(value)) for pi, ri, trial, value, _ in trials]
        result.digest.update(csv.encode())
        result.digest.update(repr(values).encode())
        result.outputs = [(grid, csv, values)]
        return result

    def check(self, first, seed):
        if not first.outputs:
            return [], []
        grid, csv, values = first.outputs[0]
        errors = []
        if np.any(grid.failed):
            errors.append(f"grid reports failed cells: {np.argwhere(grid.failed).tolist()}")
        expected = len(self.P) * len(self.R) * self.TRIALS
        if len(values) != expected:
            errors.append(f"{len(values)} trials reported, expected {expected}")
        rows = csv.splitlines()
        if rows[0] != "p,r,psnr_mean,psnr_std,trials" or len(rows) != 1 + len(self.P) * len(self.R):
            return errors + [f"grid CSV has an unexpected header or {len(rows)} lines"], []
        for row, (pi, ri) in zip(rows[1:], [(a, b) for a in range(len(self.P))
                                            for b in range(len(self.R))]):
            cell = [v for a, b, _, v in values if (a, b) == (pi, ri)]
            p, r, mean, std, trials = row.split(",")
            want = (self.P[pi], self.R[ri], float(np.mean(cell)), float(np.std(cell)), self.TRIALS)
            got = (float(p), int(r), float(mean), float(std), int(trials))
            if got[:2] != want[:2] or got[4] != want[4] \
                    or abs(got[2] - want[2]) > 5e-7 or abs(got[3] - want[3]) > 5e-7:
                errors.append(f"grid CSV row {row!r} disagrees with the trials {want}")
        for _, _, _, v in values:
            if not 0.0 <= v <= oracle.PSNR_CAP_DB:
                errors.append(f"trial PSNR {v} outside [0, {oracle.PSNR_CAP_DB}]")
        return errors, [min(v, oracle.PSNR_SATURATION_DB) for *_, v in values]


class CliIoN60:
    """The tqrank CLI as subprocesses, reading and writing text files."""

    N = 60
    SYNTH = (3, 0.7)           # (r0, p) for synth at 60^3
    SMALL = (20, 3, 0.9)       # (n, r0, p) of the instance given to complete, in the DCT span
    NOISE = 1e-2               # noise on the estimate scored by psnr, relative to the peak
    hooks = []                 # the wrappers go into each CLI child, through cli_shim.py
    min_passes = 1

    def __init__(self, seed, workdir):
        self.dir = workdir
        rng = _rng(seed, 4, 0)
        self.truth = oracle.low_rank_tensor(self.N, self.SYNTH[0], rng)
        self.estimate = self.truth + self.NOISE * np.max(np.abs(self.truth)) \
            * rng.standard_normal(self.truth.shape)
        n, r0, p = self.SMALL
        self.small_truth = oracle.low_rank_tensor(n, r0, rng, basis=oracle.dct2(n))
        self.small_mask = oracle.bernoulli_mask(n, p, rng)
        self.synth_seed = int(rng.integers(2 ** 31))
        oracle.write_t3(self.path("truth.t3"), self.truth)
        oracle.write_t3(self.path("estimate.t3"), self.estimate)
        oracle.write_t3(self.path("small_truth.t3"), self.small_truth)
        oracle.write_t3(self.path("small_observed.t3"),
                        np.where(self.small_mask, self.small_truth, 0.0))
        oracle.write_m3(self.path("small_mask.m3"), self.small_mask)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))

    def path(self, name):
        return os.path.join(self.dir, name)

    def commands(self):
        f = self.path
        n = str(self.N)
        return [
            ("synth", ["synth", "--n1", n, "--n2", n, "--n3", n, "--r0", str(self.SYNTH[0]),
                       "--p", str(self.SYNTH[1]), "--seed", str(self.synth_seed),
                       "--out-true", f("s_true.t3"), "--out-observed", f("s_observed.t3"),
                       "--out-mask", f("s_mask.m3")]),
            ("spectrum", ["spectrum", "--input", f("truth.t3"), "--q-mode", "dct"]),
            ("psnr", ["psnr", "--x", f("estimate.t3"), "--ref", f("truth.t3")]),
            # the transform the instance is made in, so the solve can recover it
            # exactly and the completion's Q-norm can be checked
            ("complete", ["complete", "--input", f("small_observed.t3"),
                          "--mask", f("small_mask.m3"), "--output", f("small_rec.t3"),
                          "--report", f("small_report.csv"), "--q-mode", "dct"]),
            ("psnr_small", ["psnr", "--x", f("small_rec.t3"), "--ref", f("small_truth.t3")]),
        ]

    def _invoke(self, argv, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "tqrank.cli", *argv]
            env = self.env
        else:
            spans_path = self.path("child_spans.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"), spans_path, *argv]
            env = dict(self.env, PERFBENCH_T0=repr(time.monotonic()))
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        wall = time.perf_counter() - start
        child = None
        if tracer is not None and os.path.exists(spans_path):
            with open(spans_path) as handle:
                child = json.load(handle)
            os.unlink(spans_path)
        return proc, wall, child

    def run(self, tracer=None):
        result = Pass()
        printed = {}
        start = time.perf_counter()
        for name, argv in self.commands():
            result.ops += 1
            with _span(tracer, f"cli.{name}"):
                proc, wall, child = self._invoke(argv, tracer)
                if child is not None:
                    tracer.absorb(child["spans"], child["missing"])
                    result.startup_s.append(child["startup_s"])
            result.op_s[name] = wall
            if proc.returncode != 0:
                result.fail(f"{name}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            if name == "complete":
                fields = dict(tok.partition("=")[::2] for tok in proc.stdout.split())
                if fields.get("converged") != "true":
                    result.fail(f"complete: {proc.stdout.strip()}")
                result.iterations += int(fields.get("iters", 0))
            printed[name] = proc.stdout
        result.wall_s = time.perf_counter() - start
        for name in ("s_true.t3", "s_observed.t3", "s_mask.m3", "small_rec.t3",
                     "small_report.csv"):
            if os.path.exists(self.path(name)):
                with open(self.path(name), "rb") as handle:
                    result.digest.update(handle.read())
        result.digest.update(repr(sorted(printed.items())).encode())
        result.outputs = [printed]
        return result

    def check(self, first, seed):
        printed = first.outputs[0]
        errors, psnrs = [], []
        if "synth" in printed:
            try:
                errors += oracle.check_synth(oracle.read_t3(self.path("s_true.t3")),
                                             oracle.read_t3(self.path("s_observed.t3")),
                                             oracle.read_m3(self.path("s_mask.m3")),
                                             self.SYNTH[0], "synth")
            except ValueError as exc:
                errors.append(f"synth: {exc}")
        if "spectrum" in printed:
            values = [float(v) for v in printed["spectrum"].split()]
            errors += oracle.check_spectrum(values, self.truth, "spectrum")
        if "psnr" in printed:
            errors += oracle.check_psnr(float(printed["psnr"]), self.estimate, self.truth, "psnr")
        if "complete" in printed:
            try:
                x = oracle.read_t3(self.path("small_rec.t3"))
            except ValueError as exc:
                return errors + [f"complete: {exc}"], psnrs
            errors += oracle.check_completion(x, self.small_truth, self.small_mask,
                                              oracle.dct2(self.SMALL[0]), _rng(seed, 99),
                                              "complete")
            with open(self.path("small_report.csv")) as handle:
                lines = handle.read().splitlines()
            if len(lines) != 1 + first.iterations:
                errors.append(f"complete: report has {len(lines) - 1} rows for "
                              f"{first.iterations} iterations")
            psnrs.append(oracle.clipped_psnr(x, self.small_truth))
            if "psnr_small" in printed:
                errors += oracle.check_psnr(float(printed["psnr_small"]), x,
                                            self.small_truth, "psnr_small")
        return errors, psnrs


WORKLOADS = {
    "adaptive-n30": AdaptiveN30,
    "dct-n60": DctN60,
    "grid-n20": GridN20,
    "cli-io-n60": CliIoN60,
}
