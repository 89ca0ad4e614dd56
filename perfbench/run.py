#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <batch-full|fig11|vidstream-serve>
        [--seed N] [--seconds S] [--trace 0|1]

The first call configures and builds perfbench/ (which compiles the
simulator from ../src) into .bench_build/perfbench; later calls only
rebuild what changed. Every call runs the arithmetic self-tests, then
the benchmark binary, and checks that it prints exactly the metrics
BENCHMARK.json declares for the mode, each in its declared unit. The
last line of standard output is the JSON result; build logs go to
standard error.
With --trace 1 the span file lands in .bench_build/perfbench/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("batch-full", "fig11", "vidstream-serve")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def parse_args(argv):
    p = argparse.ArgumentParser(
        description="VersaPipe simulator benchmark", allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)  # unknown flags exit 2 with a message
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 600:
        p.error("--seconds must be in [1, 600]")
    return args


def run_logged(cmd, timeout):
    """Run @cmd with its output on our stderr; False on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out: " + " ".join(cmd), file=sys.stderr)
        return False
    return done.returncode == 0


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        if not run_logged(["cmake", "-S", HERE, "-B", BUILD,
                           "-DCMAKE_BUILD_TYPE=Release"],
                          BUILD_TIMEOUT_S):
            fail("configure failed (the simulator sources must sit in "
                 "../src next to perfbench/)")
    if not run_logged(["cmake", "--build", BUILD, "-j", jobs],
                      BUILD_TIMEOUT_S):
        fail("build failed")
    if not run_logged([os.path.join(BUILD, "perfbench_tests")], 60):
        fail("arithmetic self-tests failed")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Validate the binary's result line against BENCHMARK.json: every
    workload prints exactly the declared set, each in its unit."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    declared = declared_metrics(trace)
    metrics = result["metrics"]
    for name, m in metrics.items():
        if declared.get(name) != m["unit"]:
            fail("metric %s [%s] is not declared in BENCHMARK.json"
                 % (name, m["unit"]))
    missing = sorted(set(declared) - set(metrics))
    if missing:
        fail("metrics missing from the result: %s" % ", ".join(missing))
    return result


def main(argv):
    args = parse_args(argv)
    build()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            BUILD, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out after %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("benchmark exited with code %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(check_result(lines[-1], args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
