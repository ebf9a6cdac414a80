#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the repository root.

    python3 e2ebench/run.py --workload hot_mix --seed 1 --seconds 40 --trace 0

Builds e2ebench/ (the system's library from src/ plus the benchmark) in
Release mode under $CARGO_TARGET_DIR (default .bench_build), runs the
benchmark's self-tests, then runs one measurement. Build and test output
go to stderr; the last line of stdout is the benchmark's JSON result. A
failed build, self-test or run exits non-zero without a result; a run
that fails its correctness gate prints "correct": false and exits 1.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["hot_mix", "cold_zipf", "sharded_2x2"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = os.path.join(root, "e2ebench")
    out_dir = os.path.join(root, "e2ebench-out")
    os.makedirs(out_dir, exist_ok=True)

    def step(cmd):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("run.py: failed: %s\n" % " ".join(cmd))
            sys.exit(1)

    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not any(os.path.exists(os.path.join(build, f))
               for f in ("build.ninja", "Makefile")):
        step(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
             + generator)
    step(["cmake", "--build", build, "-j", "4"])
    step([os.path.join(build, "e2e_selftest")])
    bench = subprocess.run(
        [os.path.join(build, "e2e_bench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out-dir", out_dir],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    sys.stdout.write(bench.stdout)
    sys.stdout.flush()
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
