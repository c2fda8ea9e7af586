#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the revbench driver from source (CMake, Release, into
.bench_build/revbench at the repository root) and runs one workload:

    python3 revbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The last line of standard output is the run's JSON result; build logs
and human-readable tables go to standard error. --write-reference
re-pins a workload's reference outputs (revbench/data) from the current
code. See revbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "revbench")
BINARY = os.path.join(BUILD, "revbench")
WORKLOADS = ["sweep", "campaign", "campaign-serial", "verify-fleet",
             "verify-diverse"]
RUN_TIMEOUT_S = 175


def build():
    """Configure once, then (re)build the driver; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "revbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    if not build():
        print("revbench: build failed", file=sys.stderr)
        return 2

    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", os.path.join(HERE, "data"),
           "--trace-out",
           os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    if args.write_reference:
        cmd.append("--write-reference")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("revbench: run exceeded its time limit", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
