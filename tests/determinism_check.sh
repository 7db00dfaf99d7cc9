#!/bin/sh
# Same-seed determinism check for one bench or example binary:
#
#   tests/determinism_check.sh <binary> [args...]
#
# Runs the binary twice, each time in a fresh temporary directory (benches
# write BENCH_*.json into their working directory), and fails unless both
# runs exit 0 and print the same stdout once host-measured lines (those
# starting with "host:") are dropped.
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
for run in 1 2; do
  mkdir "$work/$run"
  if ! (cd "$work/$run" && "$@") > "$work/$run.out"; then
    echo "run $run of $* failed" >&2
    exit 1
  fi
  grep -v '^host:' "$work/$run.out" > "$work/$run.masked"
done
diff "$work/1.masked" "$work/2.masked"
