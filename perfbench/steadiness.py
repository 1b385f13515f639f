#!/usr/bin/env python3
"""Run one workload N times, each with another seed, and print the spread
of every metric.

    python3 perfbench/steadiness.py --workload warm_mix --runs 10
    python3 perfbench/steadiness.py --workload routed_rr --runs 5 --trace 1

For each metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) / median
and the range. The spread is what the bounds in BENCHMARK.json are set
against: each end-to-end bound must exceed it, and the benchmark aims for
spreads under a third of the bound. Runs that fail are reported and
counted; the script exits 1 if any run failed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, wall, lines[-1] if lines else "no output"
    return json.loads(lines[-1]), wall, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values, units, walls, failures = {}, {}, [], 0
    attempted = failed = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        result, wall, error = run_once(args.workload, seed, args.seconds,
                                       args.trace)
        walls.append(wall)
        if result is None:
            failures += 1
            print("seed %d: FAILED (%s)" % (seed, error), flush=True)
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d: %.1f s wall, %d attempted, %d failed" %
              (seed, wall, result["attempted"], result["failed"]),
              flush=True)

    bounds = load_bounds() if args.trace == 0 else {}
    print("\n%s, %d runs, trace %d: failed share %d/%d, wall per run %.1f s"
          % (args.workload, args.runs, args.trace, failed, attempted,
             statistics.mean(walls)))
    print("%-28s %12s %12s %12s %8s %6s %12s %12s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "min", "max"))
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-28s %12.5g %12.5g %12.5g %8.4f %6s %12.5g %12.5g  %s" %
              (name, med, q1, q3, spread,
               "-" if bound is None else "%.2f" % bound, min(vals),
               max(vals), units[name]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
