#!/usr/bin/env bash
# Pin the Markdown design report byte for byte: run `pmsched --report` on the
# paper circuits at their Table II budgets and on a 64x8 strict random DFG
# at its critical path, and diff each report against the golden copy in
# GOLDEN_DIR. The goldens name every slack-rejected mux's infeasible node,
# so the on-demand naming must reproduce the transform's historic reasons.
# Registered as the `cli_report_identity` ctest.
#
# Usage: check_report_identity.sh PMSCHED_BINARY GOLDEN_DIR [--write]
#   --write  regenerate the goldens instead of diffing against them

set -u

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 PMSCHED_BINARY GOLDEN_DIR [--write]" >&2
  exit 2
fi

pmsched=$1
golden=$2
write=${3:-}
failures=0
checked=0
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# name | pmsched arguments
cases=(
  "dealer_s4|--circuit dealer --steps 4"
  "dealer_s5|--circuit dealer --steps 5"
  "dealer_s6|--circuit dealer --steps 6"
  "gcd_s5|--circuit gcd --steps 5"
  "gcd_s6|--circuit gcd --steps 6"
  "gcd_s7|--circuit gcd --steps 7"
  "vender_s5|--circuit vender --steps 5"
  "vender_s6|--circuit vender --steps 6"
  "cordic_s48|--circuit cordic --steps 48"
  "cordic_s52|--circuit cordic --steps 52"
  "random_64x8_strict_cp|--random-dfg 64x8:1 --strict --steps 110"
)

for entry in "${cases[@]}"; do
  name=${entry%%|*}
  read -r -a args <<<"${entry#*|}"
  out="$work/$name.md"
  "$pmsched" "${args[@]}" --report "$out" >/dev/null 2>"$work/stderr"
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAIL $name: exit $rc" >&2
    sed 's/^/  stderr: /' "$work/stderr" >&2
    failures=$((failures + 1))
    continue
  fi
  if [ "$write" = "--write" ]; then
    mkdir -p "$golden"
    cp "$out" "$golden/$name.md"
    echo "wrote $golden/$name.md"
  elif ! diff -u "$golden/$name.md" "$out" >"$work/diff"; then
    echo "FAIL $name: report differs from $golden/$name.md" >&2
    head -40 "$work/diff" >&2
    failures=$((failures + 1))
  else
    echo "ok   $name"
  fi
  checked=$((checked + 1))
done

if [ "$failures" -ne 0 ]; then
  echo "$failures report(s) differ" >&2
  exit 1
fi
echo "reports identical: $checked case(s)"
