#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and alternating parent/change pairs.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10]
                                    [--seconds S] [--other CHECKOUT]

Runs perfbench/run.py once per (workload, seed) and prints, per end-to-end
metric, the median, the quartiles (statistics.quantiles(values, n=4)) and
the spread (Q3 - Q1) / median, next to the metric's bound in BENCHMARK.json.

With --other, every seed runs on this checkout and on CHECKOUT (e.g. the
parent commit, made with `git archive`), alternating which goes first, and
the table gains the other side's median and how many pairs this checkout
won (ties count for neither side).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed (exit {proc.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--other", help="second checkout to alternate with")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        mine, theirs = [], []
        for i, seed in enumerate(parse_seeds(args.seeds)):
            sides = [(ROOT, mine)] + ([(Path(args.other), theirs)] if args.other else [])
            for checkout, sink in (sides if i % 2 == 0 else sides[::-1]):
                sink.append(run_once(checkout, workload, seed, args.seconds))
        print(f"\n{workload}: {len(mine)} runs")
        print(f"  {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
              + (f" {'other med':>12} {'wins':>6}" if theirs else ""))
        for name in mine[0]:
            values = [run[name] for run in mine]
            if len(values) < 2:
                continue
            q1, q2, q3, spread = summary(values)
            line = f"  {name:36} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bounds[name]:>6}"
            if theirs:
                other = [run[name] for run in theirs]
                sign = -1 if better[name] == "lower" else 1
                wins = sum(sign * (a - b) > 0 for a, b in zip(values, other))
                line += f" {statistics.median(other):12.6g} {wins:3d}/{len(values)}"
            print(line)


if __name__ == "__main__":
    main()
