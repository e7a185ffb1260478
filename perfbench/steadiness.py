#!/usr/bin/env python3
"""Runs each workload repeatedly and prints each metric's spread.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 10]
        [--first-seed 1] [--seconds S] [--trace 0|1] [--json OUT]

Run from the repository root. For every workload it runs perfbench/run.py
once per seed (seeds first-seed .. first-seed+seeds-1), then prints, per
metric, the median, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the
distance between the quartiles as a share of the median. The bounds in
BENCHMARK.json are derived from this output: a metric's bound must stay
above its spread, and is set to about three times it. Also prints each
run's failed/attempted share, which must be identical across runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-2000:])
        raise SystemExit("%s seed %d failed with exit %d" % (workload, seed, r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    cfg = bench_config()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in cfg["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=cfg["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in cfg["end_to_end"]}
    everything = {}
    for wl in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run_once(wl, seed, args.seconds, args.trace)
            runs.append(res)
            print("%s seed %d: failed %d / attempted %d" %
                  (wl, seed, res["failed"], res["attempted"]), flush=True)
        everything[wl] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("== %s: %d runs, failed shares %s" % (wl, len(runs), sorted(shares)))
        print("%-40s %12s %12s %12s %8s %8s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print("%-40s %12.6g %12.6g %12.6g %8.4f %8s" %
                  (name, med, q1, q3, spread, "-" if bound is None else bound))
        print(flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(everything, f, indent=1)


if __name__ == "__main__":
    main()
