#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/main.exe with dune
(shared dune cache off, so nothing is written outside the checkout), then
runs it with the given arguments plus the recorded input fingerprints and
passes its output and exit code through.  The last line of standard
output is the result JSON; exit code 0 means every correctness check
passed.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kw):
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s", 4)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH", 3)
    env = dict(os.environ, DUNE_CACHE="disabled")
    target = os.path.join("perfbench", "main.exe")
    built = run(
        [dune, "build", "--root", ".", "--display", "quiet", "./" + target],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
        env=env,
    )
    if built != 0:
        fail("build failed", 3)
    exe = os.path.join("_build", "default", target)
    fingerprints = os.path.join("perfbench", "fingerprints.json")
    sys.exit(run([exe] + sys.argv[1:] + ["--fingerprints", fingerprints], RUN_TIMEOUT_S, env=env))


if __name__ == "__main__":
    main()
