#!/usr/bin/env bash
# Fire every compiled-in fault-injection site once (PMSCHED_FAULT=<site>:1)
# against an input that actually reaches it, and pin the contract: the CLI
# exits 5 (internal error) with a structured error[internal] diagnostic
# naming the fault — never a crash, signal death, hang, or silent success.
# Registered as the `fault_matrix` ctest; the CI robustness job runs it
# against an ASan build.
#
# Usage: fault_matrix.sh PMSCHED_BINARY CORPUS_DIR

set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 PMSCHED_BINARY CORPUS_DIR" >&2
  exit 2
fi

pmsched=$1
corpus=$2
failures=0

run_site() {
  local site=$1
  shift
  local stderr_file
  stderr_file=$(mktemp)
  PMSCHED_FAULT="$site:1" "$pmsched" "$@" >/dev/null 2>"$stderr_file"
  local got=$?
  if [ "$got" -ne 5 ]; then
    echo "FAIL $site: exit $got, want 5 (internal)" >&2
    sed 's/^/  stderr: /' "$stderr_file" >&2
    failures=$((failures + 1))
  elif ! grep -q "error\[internal\].*fault injected at site '$site'" "$stderr_file"; then
    echo "FAIL $site: exit 5 but diagnostic does not name the fault" >&2
    sed 's/^/  stderr: /' "$stderr_file" >&2
    failures=$((failures + 1))
  else
    echo "ok   $site"
  fi
  rm -f "$stderr_file"
}

# A file input that exercises parse, per-mux gating, shared gating, oracle
# commits, and the BDD/DNF engines.
run_site parse-stmt "$corpus/shared.ok.cdfg" --steps 6
run_site bdd-node "$corpus/shared.ok.cdfg" --steps 6
run_site dnf-intern "$corpus/shared.ok.cdfg" --steps 6
run_site oracle-commit "$corpus/shared.ok.cdfg" --steps 6
run_site gating-commit "$corpus/shared.ok.cdfg" --steps 6

# explore-point: a fault at one sweep point must degrade cleanly — the point
# is skipped with a typed {"kind":"fault"} entry, the REST of the front still
# emits, and the exit stays 0 (docs/EXPLORE.md pins the contract; the
# FaultSkipsPointKeepsFront test pins it in-process).
run_explore_point() {
  local out_file stderr_file
  out_file=$(mktemp)
  stderr_file=$(mktemp)
  PMSCHED_FAULT="explore-point:1" \
    "$pmsched" --explore --explore-span 4 "$corpus/shared.ok.cdfg" \
    >"$out_file" 2>"$stderr_file"
  local got=$?
  if [ "$got" -ne 0 ]; then
    echo "FAIL explore-point: exit $got, want 0 (clean degradation)" >&2
    sed 's/^/  stderr: /' "$stderr_file" >&2
    failures=$((failures + 1))
  elif ! grep -q '"kind":"fault"' "$out_file"; then
    echo "FAIL explore-point: faulted point not skipped typed" >&2
    sed 's/^/  out: /' "$out_file" >&2
    failures=$((failures + 1))
  elif ! grep -q '"front":\[{"steps":' "$out_file"; then
    echo "FAIL explore-point: the rest of the front did not emit" >&2
    sed 's/^/  out: /' "$out_file" >&2
    failures=$((failures + 1))
  else
    echo "ok   explore-point (clean degradation, front still emitted)"
  fi
  rm -f "$out_file" "$stderr_file"
}
run_explore_point

# Server-side sites (PR 8): all three degrade CLEANLY at the server level —
# the faulted request gets a typed error response (or, for cache-insert, a
# normal response that simply is not cached), the server keeps serving the
# rest of the stream, and `pmsched --serve` exits 0 at EOF. A JSONL script
# is piped through stdio and the response stream is grepped for the
# expected shape.
run_serve_site() {
  local site=$1 want=$2 script=$3
  shift 3  # remaining args are extra server flags (e.g. --cache-persist)
  local out_file stderr_file
  out_file=$(mktemp)
  stderr_file=$(mktemp)
  # Frames go in one at a time with a short gap so async design work (and
  # its cache insert) lands before a later stats frame reads the counters.
  while IFS= read -r frame_line; do
    printf '%s\n' "$frame_line"
    sleep 0.3
  done <<<"$script" |
    PMSCHED_FAULT="$site:1" timeout 60 "$pmsched" --serve "$@" \
      >"$out_file" 2>"$stderr_file"
  local got=$?
  if [ "$got" -ne 0 ]; then
    echo "FAIL $site: exit $got, want 0 (server keeps serving)" >&2
    sed 's/^/  stderr: /' "$stderr_file" >&2
    failures=$((failures + 1))
  elif ! grep -q "$want" "$out_file"; then
    echo "FAIL $site: response stream missing expected '$want'" >&2
    sed 's/^/  out: /' "$out_file" >&2
    failures=$((failures + 1))
  elif ! grep -q '"pong":true' "$out_file"; then
    echo "FAIL $site: server did not serve the follow-up ping" >&2
    sed 's/^/  out: /' "$out_file" >&2
    failures=$((failures + 1))
  else
    echo "ok   $site (clean degradation, server kept serving)"
  fi
  rm -f "$out_file" "$stderr_file"
}

graph_json='graph g\ninput a 8\ninput b 8\nnode add s 8 a b\noutput out s\n'
design_frame='{"id":1,"op":"design","graph":"'$graph_json'","steps":4}'
ping_frame='{"id":9,"op":"ping"}'
stats_frame='{"id":10,"op":"stats"}'

# serve-frame: the first frame parse faults -> typed internal error
# response, stream continues.
run_serve_site serve-frame '"category":"internal"' \
  "$ping_frame
$ping_frame"
# serve-accept: the first design admission faults -> typed admission
# rejection, the identical retry is accepted and completes.
run_serve_site serve-accept '"category":"admission"' \
  "$design_frame
$design_frame
$ping_frame"
# cache-insert: the insert after the first design faults -> the result is
# still served (ok:true), just not cached; stats pin insert_failures=1.
run_serve_site cache-insert '"insert_failures":1' \
  "$design_frame
$design_frame
$ping_frame
$stats_frame"

# Supervision + persistence sites (PR 9). worker-crash: the crash fires
# INSIDE the worker before any typed catch; supervision quarantines the
# arenas, restarts the incarnation, and the single automatic retry answers
# the request ok -- the client never sees the crash.
run_serve_site worker-crash '"id":1,"ok":true' \
  "$design_frame
$ping_frame"

persist_dir=$(mktemp -d)
# cache-journal-write: the journal append after the first insert faults ->
# the response is already correct and still served; the failure is counted,
# the cache itself stays warm, the server keeps serving.
run_serve_site cache-journal-write '"journal_append_failures":1' \
  "$design_frame
$ping_frame
$stats_frame" \
  --cache-persist "$persist_dir/jw.cache"
# cache-snapshot-load: the startup load faults -> cold start (counted as one
# skipped record), the server comes up and serves normally.
run_serve_site cache-snapshot-load '"journal_skipped":1' \
  "$ping_frame
$stats_frame" \
  --cache-persist "$persist_dir/sl.cache"
# drain-deadline: the fault expires the drain deadline at EOF -> in-flight
# work already answered, the snapshot still flushes, exit stays 0.
run_serve_site drain-deadline '"id":1,"ok":true' \
  "$design_frame
$ping_frame" \
  --cache-persist "$persist_dir/dd.cache"
rm -rf "$persist_dir"

if [ "$failures" -ne 0 ]; then
  echo "$failures fault-matrix failure(s)" >&2
  exit 1
fi
echo "fault matrix clean (13 sites): 5 produced a structured internal diagnostic, explore-point and the 7 server-side sites degraded cleanly"
