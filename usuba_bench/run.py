#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and reports it as JSON.

    python3 usuba_bench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the repository root. The first call builds usuba_bench from
source into .bench_build/ (library sources from src/, see
CMakeLists.txt here); later calls rebuild incrementally. The binary's own
report is echoed, then one JSON line follows:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end ones of BENCHMARK.json,
with --trace 1 the per_layer ones (the traced run also writes its spans
to .bench_build/traces/). The script exits nonzero, without the JSON
line, when the build or the run fails or a declared metric is missing.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are missing; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            if run_logged(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"], log):
                fail("cmake configure failed; see " + log_path)
        if run_logged(["cmake", "--build", CMAKE_DIR, "--target",
                       "usuba_bench", "-j", jobs], log):
            fail("build failed; see " + log_path)
    return os.path.join(CMAKE_DIR, "usuba_bench")


def bench_env():
    """The caller's environment minus the library's USUBA_* knobs, which
    would change what is measured; the JIT's scratch files stay inside
    the build directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("USUBA_")}
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def run_binary(cmd):
    """Runs the benchmark in its own process group so that a timeout also
    stops the host compilers it may have started."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=bench_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("usuba_bench did not finish within %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def parse_report(text):
    """'name value unit' lines; '#' lines are the run header."""
    values = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 3 or line.startswith("#"):
            continue
        try:
            values[parts[0]] = (float(parts[1]), parts[2])
        except ValueError:
            continue
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace", os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))]
    code, out = run_binary(cmd)
    sys.stdout.write(out)
    if code != 0:
        fail("usuba_bench exited with status %d" % code)

    report = parse_report(out)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in report:
            fail("metric %s was not reported" % m["name"])
        value, unit = report[m["name"]]
        if unit != m["unit"]:
            fail("metric %s reported in %s, declared in %s"
                 % (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}
    for key in ("attempted", "failed"):
        if key not in report:
            fail(key + " was not reported")
    attempted = int(report["attempted"][0])
    failed = int(report["failed"][0])
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
