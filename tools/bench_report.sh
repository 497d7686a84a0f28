#!/usr/bin/env sh
# Run the google-benchmark suite and record the result as BENCH_PR<n>.json
# at the repo root, so every PR leaves a perf-trajectory data point.
#
# Usage: tools/bench_report.sh <bench_perf-binary> [repo-root] [filter]
#                              [pmsched-binary] [loadgen-binary]
#
# The server benchmarks give every worker a pool of the configured lanes, so
# the snapshot records TWO runs of the suite: one pinned to
# PMSCHED_THREADS=1 (the sequential baseline) and one at BENCH_THREADS
# (default: nproc) — the same filter, the same binary. The output is a
# single JSON object {"threads": {"1": <run>, "<N>": <run>}} so the
# thread-scaling ratio of every benchmark can be read from one file.
#
# Failure behavior (PR 5): if a benchmark binary exits non-zero (including
# a crash mid-suite) or produces a truncated/invalid JSON dump, the script
# exits non-zero WITHOUT writing BENCH_PR<n>.json — the snapshot is
# assembled in a temp file and moved into place only after both runs
# validate, so a failed run can never leave a partial snapshot behind.
#
# Server capture (PR 8): when the pmsched CLI and pmsched_loadgen binaries
# are passed as args 4 and 5, the snapshot additionally records three
# socket-level loadgen runs against a freshly spawned `pmsched --serve` —
# the default small/large mix, and a repeated-request pair with the design
# cache on and off (whose requests_per_sec ratio is the cache speedup) —
# under a top-level "server" key. Each run carries requests/sec and p50/p99
# latency; a failed loadgen run fails the whole script, snapshot unwritten.
#
# The output index is one past the highest existing BENCH_PR<n>.json, so
# re-running inside one PR overwrites nothing; delete stale files if you
# want a clean slate. Invoked by the `bench_report` CMake target.

set -eu

BENCH_BIN=${1:?usage: bench_report.sh <bench_perf-binary> [repo-root] [filter] [pmsched-binary] [loadgen-binary]}
ROOT=${2:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
FILTER=${3:-}
PMSCHED_BIN=${4:-}
LOADGEN_BIN=${5:-}

if [ -n "${BENCH_THREADS:-}" ]; then
  THREADS=$BENCH_THREADS
elif command -v nproc >/dev/null 2>&1; then
  THREADS=$(nproc)
else
  THREADS=2
fi

# One past the highest existing index (never fill gaps left by deleted
# snapshots, so the sequence stays chronological).
max=0
for f in "$ROOT"/BENCH_PR*.json; do
  [ -e "$f" ] || continue
  i=${f##*/BENCH_PR}
  i=${i%.json}
  case $i in
    *[!0-9]*) continue ;;
  esac
  [ "$i" -gt "$max" ] && max=$i
done
OUT="$ROOT/BENCH_PR$((max + 1)).json"

TMPDIR=${TMPDIR:-/tmp}
ONE="$TMPDIR/bench_report_t1.$$.json"
MANY="$TMPDIR/bench_report_tN.$$.json"
# Assembled next to OUT so the final mv is an atomic same-filesystem rename.
ASSEMBLED="$OUT.tmp.$$"
trap 'rm -f "$ONE" "$MANY" "$ASSEMBLED" \
  "$TMPDIR/bench_report_srv_mixed.$$.json" "$TMPDIR/bench_report_srv_on.$$.json" \
  "$TMPDIR/bench_report_srv_off.$$.json" "$TMPDIR/bench_report_explore.$$.json"' EXIT

fail() {
  echo "bench_report: ERROR: $1" >&2
  echo "bench_report: no snapshot written (refusing to leave a partial $OUT)" >&2
  exit 1
}

run_at() {
  # $1 = thread count, $2 = output file. The exit status is checked
  # explicitly: a benchmark binary that crashes mid-suite (SIGSEGV, abort,
  # sanitizer halt) leaves a truncated --benchmark_out file behind, and
  # that must never end up inside a BENCH_PR<n>.json.
  if [ -n "$FILTER" ]; then
    PMSCHED_THREADS=$1 "$BENCH_BIN" --benchmark_filter="$FILTER" \
      --benchmark_format=json --benchmark_out="$2" --benchmark_out_format=json ||
      fail "benchmark run at PMSCHED_THREADS=$1 exited with status $?"
  else
    PMSCHED_THREADS=$1 "$BENCH_BIN" \
      --benchmark_format=json --benchmark_out="$2" --benchmark_out_format=json ||
      fail "benchmark run at PMSCHED_THREADS=$1 exited with status $?"
  fi
  [ -s "$2" ] || fail "benchmark run at PMSCHED_THREADS=$1 wrote no output"
  validate_json "$2" || fail "benchmark run at PMSCHED_THREADS=$1 wrote invalid/truncated JSON"
}

validate_json() {
  # Prefer a real parse; fall back to a closing-brace sniff on systems
  # without python3 (a crash mid-dump always loses the final brace).
  if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$1" 2>/dev/null
  else
    [ "$(tail -c 2 "$1" | tr -d '[:space:]')" = "}" ]
  fi
}

echo "bench_report: run 1/2 at PMSCHED_THREADS=1"
run_at 1 "$ONE"
echo "bench_report: run 2/2 at PMSCHED_THREADS=$THREADS"
run_at "$THREADS" "$MANY"

# Optional socket-level server capture (see header comment).
SRV_MIXED="$TMPDIR/bench_report_srv_mixed.$$.json"
SRV_ON="$TMPDIR/bench_report_srv_on.$$.json"
SRV_OFF="$TMPDIR/bench_report_srv_off.$$.json"
HAVE_SERVER=0
if [ -n "$PMSCHED_BIN" ] && [ -n "$LOADGEN_BIN" ]; then
  [ -x "$PMSCHED_BIN" ] || fail "pmsched binary '$PMSCHED_BIN' is not executable"
  [ -x "$LOADGEN_BIN" ] || fail "loadgen binary '$LOADGEN_BIN' is not executable"
  echo "bench_report: loadgen 1/3 (mixed small/large)"
  "$LOADGEN_BIN" --server "$PMSCHED_BIN" --requests 400 --clients 4 \
    >"$SRV_MIXED" || fail "loadgen mixed run exited with status $?"
  echo "bench_report: loadgen 2/3 (repeated requests, cache on)"
  "$LOADGEN_BIN" --server "$PMSCHED_BIN" --requests 200 --clients 4 \
    --unique 1 --large-every 1 --large 16x8 --steps 48 --no-design \
    >"$SRV_ON" || fail "loadgen cache-on run exited with status $?"
  echo "bench_report: loadgen 3/3 (repeated requests, cache off)"
  "$LOADGEN_BIN" --server "$PMSCHED_BIN" --requests 200 --clients 4 \
    --unique 1 --large-every 1 --large 16x8 --steps 48 --no-design --no-cache \
    >"$SRV_OFF" || fail "loadgen cache-off run exited with status $?"
  for f in "$SRV_MIXED" "$SRV_ON" "$SRV_OFF"; do
    validate_json "$f" || fail "loadgen wrote invalid JSON ($f)"
  done
  HAVE_SERVER=1
fi

# Amortized-exploration speedup (PR 10, docs/EXPLORE.md): the per-size
# BM_ExplorePerPoint / BM_ExploreSweep real_time ratio from both runs,
# published under a top-level "explore" key. Skipped (not failed) when
# python3 is unavailable or the filter excluded the explore pair — the
# ratio is derived data; the raw numbers are in the runs either way.
EXPLORE="$TMPDIR/bench_report_explore.$$.json"
HAVE_EXPLORE=0
if command -v python3 >/dev/null 2>&1; then
  if python3 - "$ONE" "$MANY" "$THREADS" >"$EXPLORE" <<'PY'
import json
import sys


def ratios(path):
    doc = json.load(open(path))
    by_size = {}
    for bench in doc.get("benchmarks", []):
        name = bench["name"]
        if name.startswith(("BM_ExploreSweep/", "BM_ExplorePerPoint/")):
            kind, size = name.split("/", 1)
            by_size.setdefault(size, {})[kind] = bench["real_time"]
    out = {}
    for size, pair in sorted(by_size.items(), key=lambda kv: int(kv[0])):
        sweep = pair.get("BM_ExploreSweep")
        per_point = pair.get("BM_ExplorePerPoint")
        if sweep and per_point:
            out[size] = round(per_point / sweep, 2)
    return out


one, many = ratios(sys.argv[1]), ratios(sys.argv[2])
if not one and not many:
    sys.exit(1)
json.dump({"amortized_speedup": {"1": one, sys.argv[3]: many}}, sys.stdout)
print()
PY
  then HAVE_EXPLORE=1; fi
fi

{
  printf '{\n"threads": {\n"1":\n'
  cat "$ONE"
  printf ',\n"%s":\n' "$THREADS"
  cat "$MANY"
  printf '}\n'
  if [ "$HAVE_SERVER" -eq 1 ]; then
    printf ',\n"server": {\n"mixed":\n'
    cat "$SRV_MIXED"
    printf ',\n"cache_on":\n'
    cat "$SRV_ON"
    printf ',\n"cache_off":\n'
    cat "$SRV_OFF"
    printf '}\n'
  fi
  if [ "$HAVE_EXPLORE" -eq 1 ]; then
    printf ',\n"explore":\n'
    cat "$EXPLORE"
  fi
  printf '}\n'
} > "$ASSEMBLED"
validate_json "$ASSEMBLED" || fail "assembled snapshot is not valid JSON"

# Atomic publish: the snapshot appears at its final path fully formed.
mv "$ASSEMBLED" "$OUT"
echo "wrote $OUT (thread counts: 1 and $THREADS)"
