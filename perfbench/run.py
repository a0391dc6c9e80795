#!/usr/bin/env python3
"""Build and run the DUO benchmark driver from a checkout of the repository.

    python3 perfbench/run.py --workload attack_query --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --sweep

The driver (perfbench/src) is compiled together with the library sources in
src/ into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The
driver prints human-readable lines, then one JSON object as its last line;
this script checks that object against BENCHMARK.json and prints it again as
the last line. Exit status is non-zero on a build failure, a failed
correctness gate, or a result that does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("attack_query", "serve_open", "transfer")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ next to perfbench/; run from a full checkout")
        return None
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sweep", action="store_true",
                    help="closed-loop clients x max_batch serve sweep")
    args = ap.parse_args()
    if not args.sweep and args.workload is None:
        ap.error("--workload is required")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    if binary is None:
        return 2

    if args.sweep:
        return subprocess.run([binary, "--sweep"]).returncode

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "spans-%s-%d.csv" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("perfbench: driver printed no result (exit %d)" % proc.returncode)
        return proc.returncode or 1

    want = expected_metrics(args.trace)
    got = list(result.get("metrics", {}))
    if sorted(got) != sorted(want):
        log("perfbench: metrics %s do not match BENCHMARK.json %s" % (got, want))
        return 1
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
