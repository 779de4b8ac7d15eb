#!/usr/bin/env python3
"""Build and run the repo benchmark (ledger_bench) from the repository root.

    python3 ledger/run.py --workload solo --seed 1 --seconds 10 --trace 0

The first call configures and builds ledger/ (with the library sources in
src/) under .bench_build/ledger; later calls rebuild only what changed.
Every call runs the arithmetic self-test, then one benchmark run. Build and
self-test output goes to stderr, so the benchmark's last stdout line, one
JSON object, is the last line this script prints. Reports and span files
land in .bench_build/ledger-out. Exits nonzero, printing no result, if the
build, the self-test or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "ledger")
OUT_DIR = os.path.join(BUILD_ROOT, "ledger-out")
TMP_DIR = os.path.join(BUILD_ROOT, "tmp")
RUN_TIMEOUT_S = 175
WORKLOADS = ("solo", "zipf-contended", "deadline-storm", "holder-crash")


def step(cmd, env, timeout=None):
    """Run a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: {cmd[0]} failed: {err}", file=sys.stderr)
        return False
    return done.returncode == 0


def build(env):
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not step(["cmake", "-S", "ledger", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"], env):
            return False
    return step(["cmake", "--build", BUILD_DIR, "-j", "3", "--target",
                 "ledger_bench", "ledger_selftest"], env)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for d in (BUILD_DIR, OUT_DIR, TMP_DIR):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(TMP_DIR))

    if not build(env):
        print("run.py: build failed", file=sys.stderr)
        return 1
    if not step([os.path.join(BUILD_DIR, "ledger_selftest"),
                 "--gtest_brief=1"], env, timeout=60):
        print("run.py: arithmetic self-test failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD_DIR, "ledger_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        keys_ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        keys_ok = False
    if not keys_ok:
        sys.stderr.write(done.stdout)
        print("run.py: the run printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
