#!/usr/bin/env python3
"""Smoke test of usuba_bench (the usuba_bench_smoke ctest).

    smoke.py path/to/usuba_bench path/to/BENCHMARK.json

Runs ctr_mslice and service_mix traced with --smoke (tiny calls and
phases) and checks that every metric BENCHMARK.json declares is printed,
that error_rate is 0 and that the trace file is valid JSON; then checks
that --self-test drives error_rate above 0.
"""

import json
import os
import subprocess
import sys


def run(binary, args):
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit("FAIL: %s exited %d" % (" ".join(args), proc.returncode))
    values = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            values[parts[0]] = float(parts[1])
    return values


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for workload in ("ctr_mslice", "service_mix"):
        trace = os.path.abspath("usuba_bench_smoke_%s.json" % workload)
        values = run(binary, ["--workload", workload, "--seed", "1",
                              "--seconds", "1", "--smoke", "--trace", trace])
        missing = [name for name in declared if name not in values]
        if missing:
            sys.exit("FAIL: %s did not print %s" % (workload, missing))
        if values.get("error_rate") != 0:
            sys.exit("FAIL: %s error_rate %s" % (workload,
                                                 values.get("error_rate")))
        with open(trace) as f:
            events = json.load(f)
        if not events["traceEvents"] or "telemetry" not in events:
            sys.exit("FAIL: %s trace has no spans or telemetry" % workload)
        print("ok: %s printed %d metrics" % (workload, len(declared)))
    corrupted = run(binary, ["--workload", "ctr_mslice", "--seed", "1",
                             "--seconds", "0.5", "--smoke", "--self-test"])
    if not corrupted.get("error_rate", 0) > 0:
        sys.exit("FAIL: --self-test left error_rate at 0")
    print("ok: --self-test reports error_rate %g" % corrupted["error_rate"])


if __name__ == "__main__":
    main()
