#!/usr/bin/env bash
# Pins the fuzz stream across versions: for each fixed wfd_explore
# invocation below, the sha256 of its stdout must equal the one recorded
# in scripts/fuzz_stream_pins.txt. wfd_explore's stdout is a pure
# function of its arguments (no timing, no thread ids), so a mismatch is
# a change in which plans are sampled or mutated, or in how a plan runs,
# never noise. Diffing two runs of one binary cannot see such a change;
# this check can.
#
# Usage: scripts/check_fuzz_stream_pins.sh [--print] [BUILD_DIR]
#   Runs BUILD_DIR/tools/wfd_explore (default BUILD_DIR: build). Prints a
#   diff and exits 1 on any mismatch.
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
explore="$build_dir/tools/wfd_explore"
if [ ! -x "$explore" ]; then
  echo "error: $explore not found (build the wfd_explore target first)" >&2
  exit 1
fi

invocations=(
  "--stack all --runs 60 --seed 1"
  "--generations 2 --stack all --runs 60 --seed 1 --loss-genome"
)

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

for args in "${invocations[@]}"; do
  # shellcheck disable=SC2086  # the invocation is a word list on purpose
  if ! "$explore" $args > "$tmpdir/out"; then
    echo "error: wfd_explore $args failed" >&2
    exit 1
  fi
  echo "$(sha256sum < "$tmpdir/out" | cut -d' ' -f1) $args" >> "$tmpdir/actual.txt"
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
