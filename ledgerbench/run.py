#!/usr/bin/env python3
"""Builds the ledger benchmark from source and runs one workload.

Run from the repository root:

    python3 ledgerbench/run.py --workload serve_10k --seed 1 --seconds 25 --trace 0

The build goes to .bench_build/ledgerbench and the workloads' state files to
.bench_build/state, both inside the checkout. Build output goes to stderr;
stdout carries the benchmark's lines, and its last line is the result JSON.
Exits non-zero without a result line when the build, a correctness check or
the result's shape fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "ledgerbench")
STATE_DIR = os.path.join(ROOT, ".bench_build", "state")
RUN_TIMEOUT_S = 170


def fail(message):
    print("ledgerbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to the benchmark (src/ is missing)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "ledgerbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    if result["correct"] is not True or result["attempted"] < 1:
        fail("result is not a correct run: " + line)
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, unit %s"
             % (missing, extra, wrong))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_10k", "fleet", "train"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", STATE_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)  # subprocess.run killed it
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    check_result(proc.stdout.splitlines()[-1], args.trace == 1)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
