#!/usr/bin/env python3
"""Paired parent/change comparison of the repository benchmark.

Runs revbench/run.py in two checkouts, alternating the order (parent
first in even pairs, change first in odd ones) so host drift hits both
sides alike, and prints one Markdown row per workload and metric:

    | workload | metric | parent | change | Δ | change better |

with each side's median [q1, q3], the change in the median, and the
number of pairs in which the change was better. Usage:

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10
    python3 tools/bench_pairs.py --parent P --change C --trace 1 \\
        --metrics sig.hash_mbps,sig.table_build_s --workloads sweep

--out DIR saves every run as DIR/parent.json and DIR/change.json
({workload: [result, ...]}, in pair order); --parent-results and
--change-results print the table from two such files without running
anything. The workloads, metrics and their better direction come from
BENCHMARK.json at the root of this repository. Exit status 1 when a run
fails or is not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout, workload, seed, seconds, trace):
    """One revbench run in @checkout; its JSON result, or None."""
    cmd = [sys.executable, os.path.join(checkout, "revbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        tail = "\n    ".join(proc.stderr.strip().splitlines()[-5:])
        print(f"{checkout} {workload}: exit {proc.returncode}\n    {tail}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def fmt(v):
    """Three or four significant digits; millions as M."""
    a = abs(v)
    if a >= 1e6:
        return f"{v / 1e6:.2f}M"
    if a >= 100:
        return f"{v:.0f}"
    if a >= 10:
        return f"{v:.1f}"
    if a >= 1:
        return f"{v:.2f}"
    return f"{v:.3f}"


def summary(values):
    """median [q1, q3] of @values."""
    if len(values) < 2:
        v = fmt(values[0])
        return values[0], f"{v} [{v}, {v}]"
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]"


def ok(run):
    return run is not None and run["correct"] and run["failed"] == 0


def table(parent, change, metrics, better):
    """Markdown rows comparing paired runs; {workload: [run, ...]} each."""
    rows = ["| workload | metric | parent | change | Δ | change better |",
            "|---|---|---|---|---|---|"]
    for workload, p_runs in parent.items():
        pairs = [(p, c) for p, c in zip(p_runs, change.get(workload, []))
                 if ok(p) and ok(c)]
        if not pairs:
            continue
        for name in metrics:
            if any(name not in r["metrics"] for pair in pairs for r in pair):
                continue
            pv = [p["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["metrics"][name]["value"] for _, c in pairs]
            p_med, p_txt = summary(pv)
            c_med, c_txt = summary(cv)
            delta = (c_med - p_med) / p_med * 100 if p_med else 0.0
            sign = "+" if delta >= 0 else "−"
            lower = better.get(name, "lower") == "lower"
            wins = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
            rows.append(f"| {workload} | {name} | {p_txt} | {c_txt} | "
                        f"{sign}{abs(delta):.1f} % | {wins}/{len(pairs)} |")
    return "\n".join(rows)


def failures(side, results):
    """One line per run that failed or was not correct."""
    out = []
    for workload, runs in results.items():
        for i, r in enumerate(runs):
            if r is None:
                out.append(f"{side} {workload} pair {i}: no result")
            elif not ok(r):
                out.append(f"{side} {workload} pair {i}: correct="
                           f"{r['correct']} failed={r['failed']}")
    return out


def save(out_dir, parent, change):
    os.makedirs(out_dir, exist_ok=True)
    for name, results in (("parent", parent), ("change", change)):
        with open(os.path.join(out_dir, name + ".json"), "w") as f:
            json.dump(results, f, indent=1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="parent checkout")
    ap.add_argument("--change", help="change checkout")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="",
                    help="comma list; default: BENCHMARK.json's workloads")
    ap.add_argument("--metrics", default="",
                    help="comma list; default: the end-to-end metrics")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", default="", help="directory to save runs in")
    ap.add_argument("--parent-results", default="")
    ap.add_argument("--change-results", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = bench["end_to_end"] + bench.get("per_layer", [])
    better = {m["name"]: m["better"] for m in specs}
    metrics = ([m for m in args.metrics.split(",") if m] or
               [m["name"] for m in bench["end_to_end"]])

    if args.parent_results or args.change_results:
        if not (args.parent_results and args.change_results):
            ap.error("--parent-results needs --change-results")
        with open(args.parent_results) as f:
            parent = json.load(f)
        with open(args.change_results) as f:
            change = json.load(f)
    else:
        if not (args.parent and args.change):
            ap.error("give --parent and --change, or two result files")
        workloads = ([w for w in args.workloads.split(",") if w] or
                     [w["name"] for w in bench["workloads"]])
        seconds = args.seconds or bench["run_seconds"]
        parent = {w: [] for w in workloads}
        change = {w: [] for w in workloads}
        sides = [(args.parent, parent), (args.change, change)]
        for w in workloads:
            for i in range(args.pairs):
                for checkout, results in (sides if i % 2 == 0
                                          else sides[::-1]):
                    results[w].append(run_once(checkout, w, args.seed,
                                               seconds, args.trace))
                print(f"{w}: pair {i + 1}/{args.pairs} done",
                      file=sys.stderr)
                if args.out:
                    save(args.out, parent, change)

    print(table(parent, change, metrics, better))
    bad = failures("parent", parent) + failures("change", change)
    for line in bad:
        print(line)
    if not bad:
        print("every run correct, 0 failed operations")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
