"""Run one tqrank CLI command with the benchmark's span wrappers installed.

    python3 cli_shim.py SPANS_JSON ARGS...

ARGS are the tqrank command line.  PYTHONPATH must name the program's
``src`` directory, and PERFBENCH_T0 the CLOCK_MONOTONIC time at which the
caller started this process.  The spans, the names that could not be
wrapped and the start-up time go to SPANS_JSON; the exit code is the command's.
"""

import json
import os
import sys
import time

import spans


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    import tqrank.cli
    tracer = spans.Tracer()
    tracer.install(spans.SOLVER_HOOKS + spans.CLI_HOOKS)
    startup_s = time.monotonic() - float(os.environ["PERFBENCH_T0"])
    try:
        return tqrank.cli.main(argv)
    finally:
        tracer.close()
        with open(out_path, "w") as handle:
            json.dump({"spans": tracer.spans, "missing": sorted(tracer.missing),
                       "startup_s": startup_s}, handle)


if __name__ == "__main__":
    sys.exit(main())
