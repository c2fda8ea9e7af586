#!/usr/bin/env python3
"""Repeatability check for the repository benchmark.

Runs every workload (or --workloads a,b) --runs times, each run with its
own seed, and prints for each end-to-end metric its median, quartiles and
spread (inter-quartile distance as a share of the median) against the
metric's bound from BENCHMARK.json:

    python3 revbench/repeat.py --runs 10
    python3 revbench/repeat.py --runs 5 --workloads verify-diverse

The spread of setup_s is shown but not held to its bound (set-up time is
compared between commits, not across seeds). --out FILE saves every
run's result as JSON for a later comparison. Exit status 1 when a spread
exceeds its bound or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n    ".join(proc.stderr.strip().splitlines()[-5:])
        print(f"{workload} seed {seed}: exit {proc.returncode}\n    {tail}")
        return None
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed0", type=int, default=1,
                    help="seed of the first run; run i uses seed0 + i")
    ap.add_argument("--seconds", type=float, default=0,
                    help="override run_seconds from BENCHMARK.json")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results = {}
    ok = True
    for w in names:
        runs = []
        for i in range(args.runs):
            r = run_once(w, args.seed0 + i, seconds)
            if r is None or not r["correct"] or r["failed"]:
                print(f"{w}: run {i} (seed {args.seed0 + i}) failed: {r}")
                ok = False
                continue
            runs.append(r)
        results[w] = runs
        if len(runs) < 2:
            continue
        print(f"\n{w}: {len(runs)} runs of {seconds:g} s")
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>8s} {'bound':>6s}")
        for name, spec in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, s = spread(vals)
            held = name != "setup_s"
            flag = "" if not held or s <= spec["bound"] else "  OVER"
            if held and s > spec["bound"] / 3:
                flag = flag or "  (> bound/3)"
            ok = ok and (not held or s <= spec["bound"])
            print(f"  {name:14s} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {s:8.2%} {spec['bound']:6.0%}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
