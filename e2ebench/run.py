#!/usr/bin/env python3
"""End-to-end benchmark for pmsched: build from source, run one workload.

    python3 e2ebench/run.py --workload oneshot_xl --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Builds the pmsched library, the `pmsched`
binary and the benchmark program with CMake into $CARGO_TARGET_DIR (default
.bench_build)/e2ebench, then runs the program. Build output goes to stderr;
the program's last stdout line is the JSON result. Exits non-zero when the
sources are missing, the build fails, or a correctness check fails.

    python3 e2ebench/run.py --self-test     # the benchmark's own tests
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oneshot_xl", "serve_mix", "explore_sweep")


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if done.returncode != 0:
            sys.exit("e2ebench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2ebench")
    build(build_dir)

    if args.self_test:
        sys.exit(subprocess.run([os.path.join(build_dir, "e2ebench_test")], cwd=ROOT).returncode)

    # Relative paths keep the server's Unix socket path short.
    work_dir = os.path.relpath(build_dir, ROOT)
    cmd = [
        os.path.join(build_dir, "e2ebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--data-dir", os.path.relpath(HERE, ROOT),
        "--work-dir", work_dir,
        "--server", os.path.join(build_dir, "pmsched"),
    ]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
