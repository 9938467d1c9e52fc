#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs the benchmark command N times per workload, each run with its own
seed, and prints for every end-to-end metric the median, the quartiles and
the spread (third quartile minus first, as a share of the median; quartiles
as Python's statistics.quantiles(values, n=4) gives them). The bounds in
BENCHMARK.json are set from this output: a metric is steady when its spread
stays below a third of its bound.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads read_write --first-seed 100

The exit code is 1 when a run fails, a result is incorrect, an operation
fails, or a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in workloads:
        values, counts, walls = {}, set(), []
        for i in range(args.runs):
            seed = args.first_seed + i
            try:
                result, wall = run_once(bench["command"], workload, seed, seconds)
            except RuntimeError as e:
                print(e, file=sys.stderr)
                ok = False
                continue
            walls.append(wall)
            if not result["correct"] or result["failed"] != 0:
                print(f"{workload} seed {seed}: incorrect result or failed operations",
                      file=sys.stderr)
                ok = False
            counts.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {len(walls)} runs, wall {min(walls, default=0):.1f}-"
              f"{max(walls, default=0):.1f} s, failed/attempted {sorted(counts)}")
        print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            flag = ""
            if spread > bound:
                flag = "OVER BOUND"
                ok = False
            elif spread > bound / 3:
                flag = "over bound/3"
            print(f"  {name:16} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
                  f"{bound:>6} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
