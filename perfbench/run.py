#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <fleet-etrain|fleet-baseline|svc-mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `etrain-svcd` daemon and the `etrain-perfbench` package in
release mode (into $CARGO_TARGET_DIR, default `.bench_build`), then runs
the benchmark with the same arguments. The benchmark's last line of
output is the JSON result; build output goes to standard error. Exits
non-zero, printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir):
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    steps = [
        cargo + ["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
                 "-p", "etrain-svc", "--bin", "etrain-svcd"],
        cargo + ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(step)}")


def main():
    target_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build(target_dir)
    binary = os.path.join(target_dir, "release", "etrain-perfbench")
    done = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
