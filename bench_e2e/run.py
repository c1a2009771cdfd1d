#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The library and the benchmark build into
.bench_build/ (configured once, rebuilt incrementally on every call). The
benchmark's own `name value unit` lines are passed through; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics, holding the end_to_end metrics of BENCHMARK.json with
--trace 0 and its per_layer metrics with --trace 1. Exits non-zero, with no
JSON line, when the build fails or the benchmark produced no result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_e2e")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configures (first call only) and builds bench_e2e; True on success."""
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("build timed out: " + " ".join(step), file=sys.stderr)
            return False
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            print("build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print("unknown workload " + args.workload, file=sys.stderr)
        return 2
    if not build():
        return 1

    result_path = os.path.join(
        BUILD, "result-%s-%d.json" % (args.workload, args.seed))
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--json=" + result_path]
    if args.trace:
        trace_dir = os.path.join(BUILD, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd.append("--trace=" + trace_dir)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("bench_e2e timed out", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    if not os.path.exists(result_path):
        print("bench_e2e exited %d without a result" % done.returncode,
              file=sys.stderr)
        return 1
    with open(result_path) as f:
        run = json.load(f)

    metrics = {}
    for metric in wanted:
        got = run["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            print("bench_e2e did not report %s in %s" %
                  (metric["name"], metric["unit"]), file=sys.stderr)
            return 1
        metrics[metric["name"]] = got
    print(json.dumps({
        "correct": bool(run["correct"]) and done.returncode == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
