#!/usr/bin/env python3
"""Builds secflow and the benchmark from source, then makes one benchmark run.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Cargo builds into $CARGO_TARGET_DIR (default: .bench_build); build
output goes to stderr, so the last line of stdout is the result object.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    for needed in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"perfbench: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "secflow-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for build in builds:
        done = subprocess.run(build, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            return done.returncode
    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "secflow-perfbench"),
        *sys.argv[1:],
        "--secflow", os.path.join(release, "secflow"),
        "--work", os.path.join(here, "out"),
    ]
    return subprocess.run(bench, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
