"""Run one workload for a fixed time and print its metrics as JSON.

Started by ``run.py``, which sets PERFBENCH_T0.  Without ``--trace`` the
end-to-end metrics are measured; with ``--trace 1`` every round runs one
untraced pass and one traced pass over the same inputs, the two must give
bit-identical outputs, and the per-layer metrics come from the traced
passes.  Results and spans are also written under ``.perfbench-out/``.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
MAX_MEASURE_S = 120      # never start a round past this, whatever --seconds says


def parse_args():
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args()


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be read."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def fastest_ops_s(passes):
    """Wall time of one pass made of each operation's fastest repetition.

    The same work repeated in one run slows down whenever the host is
    busy, for spells shorter than a pass; the fastest repetition of an
    operation is the least disturbed one.
    """
    fastest = {}
    for result in passes:
        for op, seconds in result.op_s.items():
            fastest[op] = min(seconds, fastest.get(op, seconds))
    return sum(fastest.values())


def layer_metrics(traced, untraced):
    """Per-layer metrics: the median over traced passes of each pass's value.

    A layer this workload does not use reads 0.  A layer whose wrapped
    name is missing from the program is left out, with the metrics
    derived from it.
    """
    missing = {name.split(".")[0] for _, tracer in traced for name in tracer.missing}
    if "solver" in missing:
        missing.add("bench.grid_overhead_s")
    per_pass = []
    for result, tracer in traced:
        t = spans.totals(tracer.spans)
        get = lambda name, key: t.get(name, {}).get(key, 0)
        solve_s = get("solver.solve", "total_s")
        io = {f"{op}_{f}": (get(f"tensor3.{op}_{f}", "total_s"), get(f"tensor3.{op}_{f}", "bytes"))
              for op in ("read", "write") for f in ("t3", "m3")}
        slices = get("qnorm.prox", "slices")
        m = {
            "solver.iterations": (result.iterations, "count"),
            "solver.iter_ms": (1e3 * solve_s / result.iterations if result.iterations else 0.0,
                               "ms"),
            "solver.self_s": (get("solver.solve", "self_s"), "s"),
            "orth.refresh_calls": (get("orth.refresh", "calls"), "count"),
            "orth.refresh_s": (get("orth.refresh", "total_s"), "s"),
            "qnorm.prox_calls": (get("qnorm.prox", "calls"), "count"),
            "qnorm.prox_s": (get("qnorm.prox", "total_s"), "s"),
            "qnorm.slice_svds": (slices, "count"),
            "qnorm.zero_slice_share": (get("qnorm.prox", "zero_slices") / slices
                                       if slices else 0.0, "ratio"),
            "bench.trials": (result.ops if "bench.run_grid" in t else 0, "count"),
            "bench.grid_overhead_s": (get("bench.run_grid", "total_s") - solve_s
                                      if "bench.run_grid" in t else 0.0, "s"),
            "cli.startup_s": (median(result.startup_s), "s"),
            "trace.probe_s": (get(spans.PROBE, "total_s"), "s"),
        }
        for key, (seconds, _) in io.items():
            m[f"tensor3.{key}_s"] = (seconds, "s")
        for op in ("read", "write"):
            seconds = sum(v[0] for k, v in io.items() if k.startswith(op))
            mb = sum(v[1] for k, v in io.items() if k.startswith(op)) / 1e6
            m[f"tensor3.{op}_mb_per_s"] = (mb / seconds if seconds else 0.0, "MB/s")
        for name in ("synth", "spectrum", "psnr", "complete"):
            m[f"cli.{name}_s"] = (sum(v for k, v in result.op_s.items()
                                      if k.split("_")[0] == name), "s")
        per_pass.append({k: v for k, v in m.items()
                         if k not in missing and k.split(".")[0] not in missing})
    # counts are the same in every pass, which runs the same inputs
    metrics = {name: {"value": per_pass[0][name][0] if unit == "count"
                      else median([m[name][0] for m in per_pass]), "unit": unit}
               for name, (_, unit) in per_pass[0].items()}
    metrics["trace.overhead_s"] = {
        "value": median([r.wall_s for r, _ in traced]) - median([r.wall_s for r in untraced]),
        "unit": "s"}
    return metrics


def trace_checks(traced):
    """The traced call counts agree with the solver's reports."""
    errors = []
    for result, tracer in traced:
        t = spans.totals(tracer.spans)
        for name, expected in (("qnorm.prox", result.iterations),
                               ("orth.refresh", result.adaptive_iterations)):
            calls = t.get(name, {}).get("calls", 0)
            if name not in tracer.missing and calls != expected:
                errors.append(f"traced {name} calls {calls} != {expected} from the reports")
    return errors


def main():
    args = parse_args()
    t0 = float(os.environ["PERFBENCH_T0"])
    if not os.path.isfile(os.path.join(SRC, "tqrank", "__init__.py")):
        print(f"perfbench: no program source at {SRC}; run from a tqrank checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tqrank
    if os.path.dirname(os.path.dirname(os.path.abspath(tqrank.__file__))) != SRC:
        print(f"perfbench: imported tqrank from {tqrank.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.monotonic() - t0

        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            untraced.append(workload.run())
            if args.trace:
                tracer = spans.Tracer()
                tracer.install(workload.hooks)
                try:
                    traced.append((workload.run(tracer), tracer))
                finally:
                    tracer.close()
                traced[-1][0].outputs = []
            # only the first pass's outputs are checked, the others by digest; keeping
            # theirs would make peak memory grow with the number of passes a run fits
            if len(untraced) > 1:
                untraced[-1].outputs = []
            now = time.perf_counter()
            if len(untraced) >= workload.min_passes and (
                    now - start + (now - round_start) > args.seconds
                    or now - start > MAX_MEASURE_S):
                break

        # every pass runs the same inputs: the first is checked, the others must match it
        passes = untraced + [r for r, _ in traced]
        errors, psnrs = workload.check(passes[0], args.seed)
        digest = passes[0].digest.hexdigest()
        differing = sum(r.digest.hexdigest() != digest for r in passes[1:])
        if differing:
            errors.append(f"{differing} of {len(passes) - 1} repeated passes differ "
                          f"from the first")
        if args.trace:
            errors += trace_checks(traced)
            metrics = layer_metrics(traced, untraced)
        else:
            rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                         resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": fastest_ops_s(untraced), "unit": "s"},
                "psnr_db": {"value": statistics.fmean(psnrs) if psnrs else 0.0, "unit": "dB"},
                "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
            }
        failures = [msg for r in passes for msg in r.errors]
        result = {
            "correct": not errors,
            "attempted": sum(r.ops for r in passes),
            "failed": sum(r.failed for r in passes),
            "metrics": metrics,
        }
        for msg in errors + sorted(set(failures)):
            print(f"perfbench: {args.workload}: {msg}", file=sys.stderr)
        env = environment()
        print(f"perfbench: environment {json.dumps(env)}", file=sys.stderr)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        with open(os.path.join(OUT, f"result-{tag}.json"), "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                       "environment": env, "setup_s": setup_s,
                       "pass_wall_s": [r.wall_s for r in untraced],
                       "pass_iterations": [r.iterations for r in untraced],
                       "pass_op_s": [r.op_s for r in untraced],
                       "traced_pass_wall_s": [r.wall_s for r, _ in traced],
                       "errors": errors, "failures": failures, "result": result},
                      handle, indent=1)
        if args.trace:
            with open(os.path.join(OUT, f"spans-{tag}.json"), "w") as handle:
                json.dump([tracer.spans for _, tracer in traced], handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
