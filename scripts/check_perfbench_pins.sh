#!/usr/bin/env bash
# Pins perfbench's deterministic output: for every workload in
# BENCHMARK.json and each of seeds 1 and 2, one short run (three
# repetitions, --seconds 0) must print exactly the `digest` and `counter`
# lines recorded in scripts/perfbench_pins.txt. Those lines are pure
# functions of the workload and the seed — the run digest folds every
# shard's trace and the router's op log, the counters are exact work
# counts — so any change to them is a change in behaviour, never noise.
# Seed-1 lines are prefixed with the workload name, seed-2 lines with
# `<workload>@seed2`; all seed-1 lines come first.
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

for seed in 1 2; do
  for w in $workloads; do
    label="$w"
    [ "$seed" = 1 ] || label="$w@seed$seed"
    if ! python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds 0 --trace 0 \
        > "$tmpdir/$w.out"; then
      echo "error: perfbench run of $w at seed $seed failed" >&2
      exit 1
    fi
    grep -E '^(digest|counter) ' "$tmpdir/$w.out" | sed "s/^/$label /" >> "$tmpdir/actual.txt"
  done
done

if [ "${1:-}" = "--print" ]; then
  cat "$tmpdir/actual.txt"
  exit 0
fi

if ! diff -u "$pins" "$tmpdir/actual.txt"; then
  echo "perfbench pins: MISMATCH (- pinned, + this tree)" >&2
  exit 1
fi
echo "perfbench pins: $(wc -l < "$pins") lines match over $(echo "$workloads" | wc -l) workloads at seeds 1 and 2"
