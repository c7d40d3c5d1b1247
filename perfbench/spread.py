#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median and run-to-run spread against the bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload tiger_scan --runs 10 [--first-seed 1]

The spread is (Q3 - Q1) / median over the runs, with the quartiles taken as
statistics.quantiles(values, n=4) gives them. A metric is steady when its
spread stays below a third of its bound (setup_s is exempt; only its
median is compared between sets of runs).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    values = {name: [] for name in bounds}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload,
                                  "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        lines = proc.stdout.decode().strip().split("\n")
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        status = "ok" if result["correct"] and not result["failed"] else "FAIL"
        print(f"seed {seed}: {status} attempted={result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    if args.runs < 2:
        return 0
    print(f"{'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        median, q1, q3, rel = spread(vals)
        bound = bounds[name]
        mark = ""
        if bound is not None and name != "setup_s" and not rel < bound / 3:
            mark = "  above bound/3"
        print(f"{name:<26} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{rel:>8.4f} {bound if bound is not None else '-':>6}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
