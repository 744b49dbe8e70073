#!/usr/bin/env python3
"""Benchmark entry point for mobiweb.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark runner (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench, runs one workload in its own process and prints the
runner's result: the last line of standard output is one JSON object with
"correct", "attempted", "failed" and "metrics". --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 reports its per-layer
metrics (the runner reports 0 for layers the workload does not use; a
metric it leaves out fails the run) and writes the spans to
.bench_build/traces/<workload>-seed<N>.json (Perfetto trace-event JSON).
Exits non-zero, printing no result, when the build or the run fails or the
result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD / "perfbench_runner"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench_runner", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(step)}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(step)}")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return spec, {m["name"]: m["unit"] for m in spec[key]}


def validate(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are not correct/attempted/failed/metrics")
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong unit {wrong}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    spec, expected = expected_metrics(args.trace == 1)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload '{args.workload}'")

    build()
    command = [str(RUNNER), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"runner exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("runner printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("runner's last line is not JSON")
    validate(result, expected)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
