#!/usr/bin/env python3
"""Gate a google-benchmark JSON run against a checked-in baseline.

Usage: check_bench_regression.py BASELINE.json RESULT.json [THRESHOLD] [NAME=MULT ...]

Exits non-zero if any benchmark named in the baseline either

  * is missing from the result (a bench that crashed or was renamed must
    not silently pass the gate), or
  * has cpu_time > THRESHOLD x the baseline cpu_time (default 3.0 — a
    deliberately generous multiplier: CI runners are noisy and the
    baseline was measured on different hardware; the gate exists to catch
    order-of-magnitude hot-path regressions, not 20% drifts).

Trailing NAME=MULT arguments override the threshold for individual
benchmarks — used for cv/futex-bound benches whose legitimate run-to-run
variance exceeds the shared threshold (they stay gated for crashes and
lost orders of magnitude). An override naming a benchmark the baseline
does not hold is a usage error (exit 2): it would otherwise outlive the
benchmark it was written for without anyone noticing.

Benchmarks present only in the result are ignored, so widening the gate
filter does not require touching the baseline. Aggregate entries (BigO /
RMS / mean) are skipped on both sides. The baseline is a plain
google-benchmark JSON dump, so refreshing it is:

    ./build/bench_perf --benchmark_filter='<gate filter>' \
        --benchmark_format=json --benchmark_out=bench/ci_baseline.json
"""

import json
import sys

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def index_cpu_times(doc):
    """name -> cpu_time in ns, real runs only."""
    out = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        if name is None or "cpu_time" not in bench:
            continue
        out[name] = bench["cpu_time"] * UNIT_NS.get(bench.get("time_unit", "ns"), 1.0)
    return out


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            baseline = index_cpu_times(json.load(f))
        with open(argv[2]) as f:
            result = index_cpu_times(json.load(f))
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench_regression: cannot load input: {e}", file=sys.stderr)
        return 2
    threshold = 3.0
    overrides = {}
    for arg in argv[3:]:
        if "=" in arg:
            name, _, mult = arg.rpartition("=")
            overrides[name] = float(mult)
        else:
            threshold = float(arg)

    if not baseline:
        print("check_bench_regression: baseline contains no benchmarks", file=sys.stderr)
        return 2
    stale = sorted(name for name in overrides if name not in baseline)
    if stale:
        for name in stale:
            print(f"check_bench_regression: override '{name}' names no baseline benchmark",
                  file=sys.stderr)
        return 2

    failures = []
    for name, base_ns in sorted(baseline.items()):
        got_ns = result.get(name)
        if got_ns is None:
            failures.append(f"{name}: missing from result (crashed mid-suite or renamed?)")
            print(f"FAIL {name}: missing from result")
            continue
        limit = overrides.get(name, threshold)
        ratio = got_ns / base_ns if base_ns > 0 else float("inf")
        verdict = "FAIL" if ratio > limit else "  ok"
        print(
            f"{verdict} {name}: {got_ns:12.0f} ns vs baseline {base_ns:12.0f} ns "
            f"({ratio:5.2f}x, limit {limit:.1f}x)"
        )
        if ratio > limit:
            failures.append(f"{name}: {ratio:.2f}x over baseline (limit {limit:.1f}x)")

    if failures:
        print(f"\ncheck_bench_regression: {len(failures)} hot-path regression(s):",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\ncheck_bench_regression: all {len(baseline)} gated benchmarks within "
          f"{threshold:.1f}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
