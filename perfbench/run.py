"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout of tqrank.  This launcher starts
``worker.py`` as a fresh interpreter and hands it the CLOCK_MONOTONIC
time of the launch, so the worker's ``setup_s`` covers a cold set-up:
interpreter start, ``import tqrank``, input generation and input files.
The worker prints the result as the last line of standard output.
"""

import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 170


def main():
    env = dict(os.environ, PERFBENCH_T0=repr(time.monotonic()))
    # own session, so a timeout can stop the worker and any CLI child it started
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *sys.argv[1:]],
                            env=env, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker stopped after {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
