#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Run from the root of the repository:

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]

Seconds per run default to BENCHMARK.json's run_seconds. For every metric
the table gives the median, the first and third quartile
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median,
plus each workload's share of failed operations. --json writes the raw
per-run results to a file.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", help="write raw results here")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    raw = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, args.seconds, args.trace)
                   for s in parse_seeds(args.seeds)]
        raw[workload] = results
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {len(results)} runs, failed share {shares}, "
              f"all correct: {all(r['correct'] for r in results)}")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"  {name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{bound if bound is not None else '':>6}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
