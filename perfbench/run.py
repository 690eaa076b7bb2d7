#!/usr/bin/env python3
"""Build the repository benchmark and run one workload.

From the root of a checkout:

    python3 perfbench/run.py --workload exec-suite --seed 1 --seconds 12 --trace 0

Builds perfbench/perfbench.exe and the sdfg daemon with dune, inside the
checkout, then runs the workload and relays its output.  The last line
of standard output is the result object: correct, attempted, failed and
metrics.  Exits non-zero without a result when the checkout cannot be
built.  README.md describes the workloads and the metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("exec-suite", "compile-cold", "optimize", "serve-mixed")
FAULTS = ("validate-delay", "corrupt-output")
BENCH = "perfbench/perfbench.exe"
DAEMON = "bin/sdfg_cli.exe"
OUT_DIR = ".perfbench-out"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kwargs):
    """Run cmd in a process group of its own; on timeout kill the whole
    group, the serve daemon included, and wait for it."""
    try:
        proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} did not finish within {timeout} s", 1)
    return proc.returncode, out


def build():
    for need in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(need):
            fail(f"{need} is missing: run from the root of a repository checkout")
    # The shared dune cache lives outside the checkout; build inside it only.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_group(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./" + BENCH, "./" + DAEMON],
        BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if code != 0:
        fail(f"dune build failed with exit code {code}")


def main():
    ap = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", action="append", default=[], choices=FAULTS,
                    help="benchmark-side fault, used by selftest.py")
    args = ap.parse_args()
    build()
    built = os.path.join("_build", "default")
    cmd = [os.path.join(built, BENCH), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--sdfg-exe", os.path.join(built, DAEMON), "--out", OUT_DIR]
    for fault in args.inject:
        cmd += ["--inject", fault]
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        fail(f"the benchmark exited with code {code}", 1)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result object on the last line", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result object", 1)


if __name__ == "__main__":
    main()
