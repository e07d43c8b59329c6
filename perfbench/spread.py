#!/usr/bin/env python3
"""Runs one workload on several seeds and reports, per metric, the median
and the quartile spread (Q3 - Q1) / median, next to the metric's bound in
BENCHMARK.json.

    python3 perfbench/spread.py knn-static --seeds 1-10 [--trace 0|1]

A bound is met when the spread stays below it; the benchmark aims for a
third of it. Every run's failed/attempted share is printed too: it must be
identical across runs. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values, shares, incorrect = {}, set(), 0
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        incorrect += not result["correct"]
        shares.add((result["failed"], result["attempted"]))
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append("%s=%.6g" % (name, m["value"]))
        print("seed %d: %s" % (seed, " ".join(line)), flush=True)

    print("incorrect runs: %d; failed/attempted: %s" % (
        incorrect, sorted({f / a for f, a in shares})))
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = float("nan")
        if len(vals) >= 2 and med:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
        bound = bounds.get(name)
        print("%-36s median %-14.6g spread %6.3f  bound %s" % (
            name, med, spread, bound if bound is not None else "-"))


if __name__ == "__main__":
    main()
