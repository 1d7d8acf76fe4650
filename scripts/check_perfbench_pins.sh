#!/usr/bin/env bash
# Pins perfbench's deterministic output: for every workload in
# BENCHMARK.json, one short seed-1 run (three repetitions, --seconds 0)
# must print exactly the `digest` and `counter` lines recorded in
# scripts/perfbench_pins.txt. Those lines are pure functions of the
# workload and the seed — the run digest folds every shard's trace and
# the router's op log, the counters are exact work counts — so any
# change to them is a change in behaviour, never noise.
#
# Usage: scripts/check_perfbench_pins.sh
#   Builds perfbench like perfbench/run.py does (into
#   $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench).
#   Prints a diff and exits 1 on any mismatch.
#
# Re-pinning: only for a change that is meant to alter these lines, with
# the reason written down in CHANGES.md (see docs/BENCHMARKS.md):
#   scripts/check_perfbench_pins.sh --print > scripts/perfbench_pins.txt
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
pins="$repo_root/scripts/perfbench_pins.txt"
cd "$repo_root"

workloads="$(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
test -n "$workloads"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

for w in $workloads; do
  if ! python3 perfbench/run.py --workload "$w" --seed 1 --seconds 0 --trace 0 \
      > "$tmpdir/$w.out"; then
    echo "error: perfbench run of $w failed" >&2
    exit 1
  fi
  grep -E '^(digest|counter) ' "$tmpdir/$w.out" | sed "s/^/$w /" >> "$tmpdir/actual.txt"
done

if [ "${1:-}" = "--print" ]; then
  cat "$tmpdir/actual.txt"
  exit 0
fi

if ! diff -u "$pins" "$tmpdir/actual.txt"; then
  echo "perfbench pins: MISMATCH (- pinned, + this tree)" >&2
  exit 1
fi
echo "perfbench pins: $(wc -l < "$pins") lines match over $(echo "$workloads" | wc -l) workloads"
