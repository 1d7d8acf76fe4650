#!/usr/bin/env bash
# Compares two checkouts on one perfbench workload by alternating pairs:
# pair i runs the workload once on each side, the parent first in odd
# pairs and the change first in even ones, so drift in the host's load
# falls on both sides alike. For every end-to-end metric of the result
# line it prints each side's quartiles, median and runs, how many pairs
# the change won (by the metric's `better` direction in CHANGE_DIR's
# BENCHMARK.json) and every pair's change/parent ratio, then each side's
# repetition counts (perfbench keeps every repetition's outcome, so a
# `peak_rss_mb` move splits into that retention and live memory), then
# the failed and attempted operations of both sides. Quartiles
# interpolate linearly between the sorted runs.
#
# Usage: scripts/perfbench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD
#            [--pairs N] [--seconds S] [--seed K]
#   PARENT_DIR, CHANGE_DIR  frozen checkouts (git archive or git clone);
#                           perfbench/run.py rebuilds from its own tree,
#                           so a tree being edited mixes versions
#   --pairs N               pairs to run (default 10)
#   --seconds S             --seconds of each run (default 25)
#   --seed K                --seed of each run (default: the workload's)
#
# Each side is built by its own perfbench/run.py into its own target
# directory: $CARGO_TARGET_DIR/pairs-parent and .../pairs-change when
# CARGO_TARGET_DIR is set (kept for the next call), else a temporary
# directory removed at exit. Of run.py's output only the result line (its
# last line) and the `repetitions N` line are read. Exits 1 if a build or
# a run fails.
set -euo pipefail

usage() {
  sed -n '/^# Usage:/,/^#   --seed/p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

[ $# -ge 3 ] || usage
parent_dir="$1"
change_dir="$2"
workload="$3"
shift 3
pairs=10
seconds=25
seed=""
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs="${2:?--pairs needs a value}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    *) usage ;;
  esac
done
case "$pairs" in '' | *[!0-9]* | 0) echo "error: --pairs must be a positive integer" >&2; exit 2 ;; esac
for dir in "$parent_dir" "$change_dir"; do
  if [ ! -f "$dir/perfbench/run.py" ]; then
    echo "error: $dir/perfbench/run.py not found" >&2
    exit 2
  fi
done

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
target_root="${CARGO_TARGET_DIR:-$tmpdir}"
case "$target_root" in /*) ;; *) target_root="$PWD/$target_root" ;; esac

# run_side SIDE DIR: one run; appends the result line to $tmpdir/SIDE.jsonl
# and the repetition count (? if the run printed none) to $tmpdir/SIDE.reps.
run_side() {
  local side="$1" dir="$2"
  local args=(--workload "$workload" --seconds "$seconds" --trace 0)
  [ -z "$seed" ] || args+=(--seed "$seed")
  if ! CARGO_TARGET_DIR="$target_root/pairs-$side" \
      python3 "$dir/perfbench/run.py" "${args[@]}" > "$tmpdir/run.out" \
      2> "$tmpdir/run.err"; then
    cat "$tmpdir/run.err" >&2
    echo "error: the $side run of $workload failed" >&2
    exit 1
  fi
  tail -n 1 "$tmpdir/run.out" >> "$tmpdir/$side.jsonl"
  local reps
  reps="$(sed -n 's/^repetitions \([0-9][0-9]*\).*/\1/p' "$tmpdir/run.out" | tail -n 1)"
  echo "${reps:-?}" >> "$tmpdir/$side.reps"
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then
    run_side parent "$parent_dir"
    run_side change "$change_dir"
  else
    run_side change "$change_dir"
    run_side parent "$parent_dir"
  fi
  echo "pair $i/$pairs done" >&2
done

python3 - "$tmpdir/parent.jsonl" "$tmpdir/change.jsonl" \
    "$change_dir/BENCHMARK.json" "$workload" "$pairs" "$seconds" "${seed:-default}" \
    "$tmpdir/parent.reps" "$tmpdir/change.reps" <<'EOF'
import json
import statistics
import sys

(parent_path, change_path, bench_path, workload, pairs, seconds, seed,
 parent_reps_path, change_reps_path) = sys.argv[1:]
parent = [json.loads(line) for line in open(parent_path)]
change = [json.loads(line) for line in open(change_path)]
better = {m["name"]: m["better"] for m in json.load(open(bench_path))["end_to_end"]}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


print("perfbench pairs: %s, %s pairs of %s s, seed %s" % (workload, pairs, seconds, seed))
print("%-12s %-7s %12s %12s %12s" % ("metric", "side", "q1", "median", "q3"))
for name in parent[0]["metrics"]:
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    for side, values in (("parent", p), ("change", c)):
        q1, median, q3 = quartiles(values)
        print("%-12s %-7s %12.6g %12.6g %12.6g   runs: %s" % (
            name, side, q1, median, q3, " ".join("%.6g" % v for v in values)))
    ratios = [cv / pv if pv else float("inf") for pv, cv in zip(p, c)]
    direction = better.get(name)
    if direction == "higher":
        wins = sum(cv > pv for pv, cv in zip(p, c))
    elif direction == "lower":
        wins = sum(cv < pv for pv, cv in zip(p, c))
    else:
        wins = None
    won = "n/a" if wins is None else "%d/%d" % (wins, len(ratios))
    print("%-12s wins (change %s): %s; ratios change/parent: %s" % (
        name, direction or "?", won, " ".join("%.3f" % r for r in ratios)))
for side, path in (("parent", parent_reps_path), ("change", change_reps_path)):
    reps = [line.strip() for line in open(path)]
    known = [int(r) for r in reps if r.isdigit()]
    median = "%g" % statistics.median(known) if known else "?"
    print("%-12s %-7s %12s %12s %12s   runs: %s" % (
        "repetitions", side, "", median, "", " ".join(reps)))
for side, rows in (("parent", parent), ("change", change)):
    print("%-7s failed %d of %d attempted; incorrect runs %d" % (
        side, sum(r["failed"] for r in rows), sum(r["attempted"] for r in rows),
        sum(not r["correct"] for r in rows)))
EOF
