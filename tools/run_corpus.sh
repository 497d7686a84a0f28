#!/usr/bin/env bash
# Replay the malformed-input corpus through the pmsched CLI and pin the
# robustness contract: every *.bad.cdfg exits 3 with one structured
# "error[parse]" diagnostic on stderr, every *.ok.cdfg exits 0, and nothing
# ever dies on a signal (exit >= 128 — a crash, sanitizer abort, or
# uncaught exception). Registered as the `corpus_cli` ctest; the CI
# robustness job runs it against an ASan build.
#
# Usage: run_corpus.sh PMSCHED_BINARY CORPUS_DIR

set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 PMSCHED_BINARY CORPUS_DIR" >&2
  exit 2
fi

pmsched=$1
corpus=$2
failures=0

check() {
  local file=$1 want=$2
  local stderr_file
  stderr_file=$(mktemp)
  "$pmsched" "$file" --steps 6 >/dev/null 2>"$stderr_file"
  local got=$?
  if [ "$got" -ge 128 ]; then
    echo "FAIL $file: died on a signal (exit $got)" >&2
    failures=$((failures + 1))
  elif [ "$got" -ne "$want" ]; then
    echo "FAIL $file: exit $got, want $want" >&2
    sed 's/^/  stderr: /' "$stderr_file" >&2
    failures=$((failures + 1))
  elif [ "$want" -ne 0 ] && ! grep -q 'error\[parse\]' "$stderr_file"; then
    echo "FAIL $file: exit $got but no structured error[parse] diagnostic" >&2
    sed 's/^/  stderr: /' "$stderr_file" >&2
    failures=$((failures + 1))
  else
    echo "ok   $file (exit $got)"
  fi
  rm -f "$stderr_file"
}

bad=0
for f in "$corpus"/*.bad.cdfg; do
  [ -e "$f" ] || continue
  check "$f" 3
  bad=$((bad + 1))
done
ok=0
for f in "$corpus"/*.ok.cdfg; do
  [ -e "$f" ] || continue
  check "$f" 0
  ok=$((ok + 1))
done

if [ "$bad" -lt 17 ] || [ "$ok" -lt 5 ]; then
  echo "FAIL: corpus incomplete ($bad bad, $ok ok files in $corpus)" >&2
  failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures corpus failure(s)" >&2
  exit 1
fi
echo "corpus clean: $bad malformed files rejected, $ok valid files accepted"
