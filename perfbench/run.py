#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles ../src into
a static library) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. The exit code is the benchmark's: 0 only when
every correctness check passed.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Program knobs that would override the workload's own configuration.
OVERRIDING_ENV = ("MDO_THREADS", "MDO_SHARDS")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_identity():
    """The git commit when there is one, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return None
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark helper tests")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    if not os.path.isfile(os.path.join(SRC, "sim", "simulator.hpp")):
        return fail(f"program sources not found under {SRC}")
    build_dir = build()
    if build_dir is None:
        return fail("build failed")

    env = {k: v for k, v in os.environ.items() if k not in OVERRIDING_ENV}
    if args.self_test:
        command = [os.path.join(build_dir, "perfbench_tests")]
    else:
        command = [os.path.join(build_dir, "perfbench"),
                   "--workload", args.workload, "--seed", args.seed,
                   "--seconds", args.seconds, "--trace", args.trace,
                   "--commit", source_identity()]
    sys.stdout.flush()
    return subprocess.run(command, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
