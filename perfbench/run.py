#!/usr/bin/env python3
"""Host-cost benchmark for Scatter: build, run one workload, print the result.

Run from the repository root:

  python3 perfbench/run.py --workload kv_write --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload kv_write --seed 1 --seconds 20 --trace 1
  python3 perfbench/run.py --workload chirpchat --seed 1 --seconds 2 --self-check

The script configures and builds the CMake package in perfbench/ (which
compiles the Scatter sources under src/) into .bench_build/ as a Release
build, then runs scatter_perfbench. The program's human-readable lines are
passed through; its last line, a JSON result, is re-printed with exactly the
metrics BENCHMARK.json lists for the mode: end_to_end with --trace 0,
per_layer with --trace 1. The exit code is non-zero, and no result line is
printed, when the build fails or a listed metric is missing; a failed
correctness check exits non-zero with the metrics withheld.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
TARGET = "scatter_perfbench"


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path, "perfbench")


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", PACKAGE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", TARGET, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, TARGET)


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run the seed twice untraced and twice traced "
                             "and fail unless all four runs agree")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.self_check:
        return subprocess.run(cmd + ["--self-check"]).returncode

    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        print("perfbench: the benchmark printed nothing", file=sys.stderr)
        return proc.returncode or 2
    result = json.loads(lines[-1])
    if result["correct"]:
        wanted = listed_metrics(args.trace)
        missing = [name for name in wanted if name not in result["metrics"]]
        if missing:
            print(f"perfbench: missing metrics {missing}", file=sys.stderr)
            return 2
        result["metrics"] = {name: result["metrics"][name] for name in wanted}
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
