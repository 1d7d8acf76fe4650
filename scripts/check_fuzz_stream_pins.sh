#!/usr/bin/env bash
# Pins the fuzz stream and the catalog sweep across versions: for each
# fixed invocation below, the sha256 of its stdout must equal the one
# recorded in scripts/fuzz_stream_pins.txt. The stdout of wfd_explore and
# of wfd_scenarios is a pure function of the arguments (no timing, no
# thread ids), so a mismatch is a change in which plans are sampled or
# mutated, or in how a plan or catalog entry runs, never noise. Diffing
# two runs of one binary cannot see such a change; this check can.
#
# Usage: scripts/check_fuzz_stream_pins.sh [--print] [BUILD_DIR]
#   Runs BUILD_DIR/tools/{wfd_explore,wfd_scenarios} (default BUILD_DIR:
#   build). Prints a diff and exits 1 on any mismatch.
#
# Re-pinning: only for a change that is meant to move the stream, with the
# reason written down in CHANGES.md (see docs/FUZZING.md):
#   scripts/check_fuzz_stream_pins.sh --print [BUILD_DIR] > scripts/fuzz_stream_pins.txt
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
pins="$repo_root/scripts/fuzz_stream_pins.txt"

print=0
if [ "${1:-}" = "--print" ]; then
  print=1
  shift
fi
build_dir="${1:-$repo_root/build}"

# Each invocation is a tool under BUILD_DIR/tools followed by its
# arguments.
invocations=(
  "wfd_explore --stack all --runs 60 --seed 1"
  "wfd_explore --generations 2 --stack all --runs 60 --seed 1 --loss-genome"
  "wfd_scenarios --scenario all --seed-count 3"
)

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

for invocation in "${invocations[@]}"; do
  tool="$build_dir/tools/${invocation%% *}"
  if [ ! -x "$tool" ]; then
    echo "error: $tool not found (build the ${invocation%% *} target first)" >&2
    exit 1
  fi
  # shellcheck disable=SC2086  # the arguments are a word list on purpose
  if ! "$tool" ${invocation#* } > "$tmpdir/out"; then
    echo "error: $invocation failed" >&2
    exit 1
  fi
  echo "$(sha256sum < "$tmpdir/out" | cut -d' ' -f1) $invocation" >> "$tmpdir/actual.txt"
done

if [ "$print" = 1 ]; then
  cat "$tmpdir/actual.txt"
  exit 0
fi

if ! diff -u "$pins" "$tmpdir/actual.txt"; then
  echo "fuzz stream pins: MISMATCH (- pinned, + this tree)" >&2
  exit 1
fi
echo "fuzz stream pins: $(wc -l < "$pins") invocations match"
