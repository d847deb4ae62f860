#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <faulter|patcher|hybrid> --seed <n> \
        --seconds <s> --trace <0|1>

The benchmark crate (perfbench/Cargo.toml) builds the toolchain crates it
measures as path dependencies, offline, into $CARGO_TARGET_DIR
(default: .bench_build). The benchmark binary's standard output is passed
through; its last line is the JSON result. Build logs go to standard
error. Any build or run failure exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# Whole-run limit for the measurement itself (the build is not included).
RUN_TIMEOUT_S = 170


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "release", "perfbench")
    out_dir = os.path.join(target_dir, "perfbench")
    try:
        result = subprocess.run(
            [binary, *sys.argv[1:], "--out-dir", out_dir],
            cwd=ROOT,
            env=env,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
