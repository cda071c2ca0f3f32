#!/usr/bin/env python3
"""Repeats the benchmark and checks that its end-to-end metrics hold still.

Sets mode (default): runs --sets sets of --runs runs of every workload on
one checkout. Each run gets its own seed (--seed, --seed + 1, ...); runs
alternate between workloads, and every other set walks the workloads in
reverse order. Prints, per workload and metric, each set's median and
quartiles, and exits 1 when a set's median is worse than the first set's
by more than the metric's BENCHMARK.json bound, or when a set's
interquartile spread (setup_s excepted) exceeds that bound.

    python3 usuba_bench/repeat.py --sets 2 --runs 5 --seed 100

Pair mode: --baseline DIR names a second checkout (the parent commit).
Each pair runs both checkouts on the same seed, alternating which goes
first. Prints both sides' medians and quartiles and how many pairs the
change won, and exits 1 when the change's median is worse than the
parent's by more than the bound.

    python3 usuba_bench/repeat.py --baseline ../parent --runs 10 --seed 7

Run from the root of the checkout under test. Quartiles are
statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(checkout, "usuba_bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("repeat.py: %s failed (status %d)" % (" ".join(cmd),
                                                       proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("repeat.py: %s seed %d reported %d failed of %d"
                 % (workload, seed, result["failed"], result["attempted"]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def worse_by(metric, base, new):
    """How much worse new is than base, as a share of base (>0 = worse)."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def sets_mode(spec, args, workloads):
    # results[set][workload][metric] -> list of values
    results = [{w: {} for w in workloads} for _ in range(args.sets)]
    for s in range(args.sets):
        order = workloads if s % 2 == 0 else workloads[::-1]
        for i in range(args.runs):
            seed = args.seed + s * args.runs + i
            for w in order:
                for name, value in run_once(ROOT, w, seed,
                                            args.seconds).items():
                    results[s][w].setdefault(name, []).append(value)
                print("set %d run %d %s seed %d done" % (s + 1, i + 1, w,
                                                         seed),
                      file=sys.stderr)
    ok = True
    print("%-14s %-12s %-5s %12s %12s %12s %8s %8s" % (
        "workload", "metric", "set", "median", "q1", "q3", "spread",
        "shift"))
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = summary(results[0][w][name])[0]
            for s in range(args.sets):
                med, q1, q3 = summary(results[s][w][name])
                spread = (q3 - q1) / med
                shift = worse_by(metric, first, med)
                flag = ""
                if shift > bound:
                    flag += " DISAGREE"
                if name != "setup_s" and spread > bound:
                    flag += " SPREAD"
                ok = ok and not flag
                print("%-14s %-12s %-5d %12.4f %12.4f %12.4f %7.2f%% %7.2f%%%s"
                      % (w, name, s + 1, med, q1, q3, 100 * spread,
                         100 * shift, flag))
    return ok


def pair_mode(spec, args, workloads):
    base_root = os.path.abspath(args.baseline)
    sides = {"parent": base_root, "change": ROOT}
    results = {side: {w: {} for w in workloads} for side in sides}
    for i in range(args.runs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                for name, value in run_once(sides[side], w, seed,
                                            args.seconds).items():
                    results[side][w].setdefault(name, []).append(value)
            print("pair %d %s seed %d done" % (i + 1, w, seed),
                  file=sys.stderr)
    ok = True
    print("%-14s %-12s %12s %12s %12s %12s %12s %12s %6s %8s" % (
        "workload", "metric", "parent", "p.q1", "p.q3", "change", "c.q1",
        "c.q3", "wins", "worse"))
    for w in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = results["parent"][w][name]
            change = results["change"][w][name]
            pm, pq1, pq3 = summary(parent)
            cm, cq1, cq3 = summary(change)
            wins = sum(worse_by(metric, p, c) < 0
                       for p, c in zip(parent, change))
            worse = worse_by(metric, pm, cm)
            flag = " REGRESSION" if worse > metric["bound"] else ""
            ok = ok and not flag
            print("%-14s %-12s %12.4f %12.4f %12.4f %12.4f %12.4f %12.4f "
                  "%3d/%-2d %7.2f%%%s" % (w, name, pm, pq1, pq3, cm, cq1,
                                          cq3, wins, len(parent),
                                          100 * worse, flag))
    return ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set (pairs in pair mode)")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--workloads",
                        help="comma-separated subset (default: all)")
    parser.add_argument("--baseline", help="parent checkout: pair mode")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to take quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w in workloads]
    ok = (pair_mode if args.baseline else sets_mode)(spec, args, workloads)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
