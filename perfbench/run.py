#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload tiger_scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and compiles
perfbench/ (and with it the library under src/) into .bench_build/perfbench;
later runs only rebuild what changed. The benchmark's own output goes to
standard output and ends with one JSON line:

    {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of the traced run. `--selftest` builds and runs the benchmark's own tests
instead. Exits non-zero, without a result line, if the build or the run
fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# A first run compiles the whole library; a run itself takes run_seconds
# plus its set-up (well under a minute), so these only catch hangs.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step; returns True on success, logs its output if not."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"perfbench: {' '.join(cmd)} failed: {err}")
        return False
    if proc.returncode != 0:
        log(proc.stdout.decode(errors="replace")[-4000:])
        log(f"perfbench: {' '.join(cmd)} exited with {proc.returncode}")
        return False
    return True


def build(target):
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD_DIR, "--target", target,
                      "-j", jobs], BUILD_TIMEOUT_S)


def run_benchmark(args):
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload,
           "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"perfbench: run failed: {err}")
        return 1
    out = proc.stdout.decode(errors="replace")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"perfbench: exited with {proc.returncode}")
        return proc.returncode
    try:
        result = json.loads(out.rstrip("\n").split("\n")[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        log("perfbench: no result line")
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_test"):
            return 1
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")],
                              cwd=ROOT).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 1
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
