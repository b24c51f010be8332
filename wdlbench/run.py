#!/usr/bin/env python3
"""Build and run the WebdamLog benchmark.

    python3 wdlbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds wdlbench/main.exe from source (dune, release profile, build
directory .bench_build at the repository root) and runs one measurement;
the last line of standard output is the result as JSON.

    python3 wdlbench/run.py --workload NAME --repeat N [--seed FIRST] ...

runs the workload N times on seeds FIRST..FIRST+N-1 and prints, for
each metric, the median and the interquartile range as a share of the
median, flagging spreads above the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TARGET = "./" + os.path.basename(HERE) + "/main.exe"
EXE = os.path.join(BUILD_DIR, "default", os.path.basename(HERE), "main.exe")
RUN_TIMEOUT_S = 170


def build():
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled", TARGET]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.isfile(EXE)


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def exe_args(workload, seed, seconds, trace, rev):
    return [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--git-rev", rev]


def run_once(args, rev):
    try:
        done = subprocess.run(
            exe_args(args.workload, args.seed, args.seconds, args.trace, rev),
            cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1
    return done.returncode


def quartile_spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def repeat(args, rev):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    values = {}
    for i in range(args.repeat):
        seed = args.seed + i
        try:
            done = subprocess.run(
                exe_args(args.workload, seed, args.seconds, args.trace, rev),
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"seed {seed}: timed out", file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        diag = next((json.loads(l)["diagnostics"] for l in lines
                     if l.startswith('{"diagnostics"')), {})
        shown = " ".join(f"{k}={m['value']:.4g}"
                         for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"calibration_s={diag.get('calibration_s', 0):.4f} {shown}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    flagged = 0
    print(f"{args.workload}: {args.repeat} runs, seeds {args.seed}.."
          f"{args.seed + args.repeat - 1}")
    for name, vs in values.items():
        med, spread = quartile_spread(vs)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            flag = "  ABOVE BOUND"
            flagged += 1
        elif bound is not None and spread > bound / 3:
            flag = "  above a third of the bound"
        shown = "-" if bound is None else f"{bound:.3f}"
        print(f"  {name:32s} median {med:14.6f}  iqr/median {spread:8.4f}"
              f"  bound {shown}{flag}")
    return 1 if flagged else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run N seeds and report each metric's median and spread")
    args = p.parse_args()
    if not build():
        return 1
    rev = git_rev()
    if args.repeat > 0:
        return repeat(args, rev)
    return run_once(args, rev)


if __name__ == "__main__":
    sys.exit(main())
