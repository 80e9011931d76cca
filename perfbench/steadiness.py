#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly, one seed per run, and
reports every metric's median, quartiles and spread, where spread is the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)). The bounds in BENCHMARK.json are set
from this output: each end-to-end spread should stay below a third of its
bound.

    python3 perfbench/steadiness.py --runs 10 --first-seed 1
    python3 perfbench/steadiness.py --workloads skpd_loop --runs 5
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return result


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst = {}
    for workload in args.workloads.split(","):
        values = {}
        for k in range(args.runs):
            seed = args.first_seed + k
            result = run_once(workload, seed, args.seconds)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr)
        print(f"\n{workload} ({args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1})")
        print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst[(workload, name)] = spread / bound
                if spread > bound / 3:
                    flag = "  > bound/3"
            print(f"  {name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6}"
                  f"{flag}")
    if worst:
        (w, n), r = max(worst.items(), key=lambda kv: kv[1])
        print(f"\nlargest spread/bound: {r:.3f} ({w} {n})")


if __name__ == "__main__":
    main()
