#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_rand50 --seed 1 \
        --seconds 30 --trace 0

Configures and builds perfbench/ (which compiles the library from src/) in
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, then runs one workload. Build output goes to stderr; stdout carries
the benchmark's report, whose last line is one JSON object with the keys
correct, attempted, failed and metrics. BENCHMARK.json is the one list of
metric names: --trace 0 reports every end_to_end metric, --trace 1 every
per_layer metric (0 for those the workload does not exercise), in the order
listed there. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_rand50", "dataplane_isp", "churn_congested")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 1


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "hbh_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "hbh_perfbench")


def metric_specs(trace):
    """The metrics BENCHMARK.json lists for this mode, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def complete(result, trace):
    """Checks the reported metrics against BENCHMARK.json and puts them in
    its order. Every end-to-end metric must be reported; a per-layer metric
    the workload does not exercise reads 0. Returns an error or None."""
    reported = result["metrics"]
    specs = metric_specs(trace)
    listed = {m["name"] for m in specs}
    unlisted = sorted(set(reported) - listed)
    if unlisted:
        return f"metrics not in BENCHMARK.json: {unlisted}"
    metrics = {}
    for m in specs:
        value = reported.get(m["name"])
        if value is None:
            if not trace:
                return f"end-to-end metric {m['name']} not reported"
            value = {"value": 0, "unit": m["unit"]}
        if value["unit"] != m["unit"]:
            return (f"{m['name']} reported in {value['unit']}, "
                    f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = value
    result["metrics"] = metrics
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail(f"{ROOT} holds no src/ tree to build; run from a "
                    "checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        return fail(f"build failed: {e}")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        return fail("benchmark printed no result line")
    error = complete(result, args.trace)
    if error:
        sys.stderr.write(proc.stdout)
        return fail(error)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
