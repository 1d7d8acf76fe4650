#!/usr/bin/env bash
# Checks that every relative markdown link target in the repo's *.md files
# exists. External (http/https/mailto) and pure-anchor links are skipped.
#
# Additionally cross-checks docs/SCENARIOS.md against the scenario
# registry: every scenario named in the catalog table (rows of the form
# "| `name` | ...") must appear in `wfd_scenarios --list`. The check runs
# when the wfd_scenarios binary is found (WFD_SCENARIOS_BIN overrides the
# search); set WFD_REQUIRE_SCENARIO_CHECK=1 to make a missing binary an
# error (CI does, after building).
#
# Also cross-checks the fuzz corpus both ways: every `tests/corpus/*.json`
# path named in any markdown file must exist on disk, and every committed
# corpus file must be documented in docs/FUZZING.md (an undocumented
# counterexample is a counterexample nobody will understand next year).
#
# Finally, every backticked source path in the docs (`src/...`,
# `tests/...`, `sim/simulator.h`, ...) must name a file or directory that
# exists (see the last section).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

fail=0
while IFS= read -r md; do
  dir="$(dirname "$md")"
  # Extract inline link targets: [text](target)
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"          # drop in-page anchors
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ]; then
      echo "BROKEN: $md -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)[:space:]]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
done < <(git ls-files --cached --others --exclude-standard '*.md')

# --- scenario registry cross-check ------------------------------------------
scenarios_md="docs/SCENARIOS.md"
scenarios_bin="${WFD_SCENARIOS_BIN:-}"
if [ -z "$scenarios_bin" ]; then
  for candidate in build/tools/wfd_scenarios \
                   build/release/tools/wfd_scenarios \
                   build/asan/tools/wfd_scenarios \
                   build/debug/tools/wfd_scenarios; do
    if [ -x "$candidate" ]; then
      scenarios_bin="$candidate"
      break
    fi
  done
fi
if [ -f "$scenarios_md" ] && [ -n "$scenarios_bin" ] && [ -x "$scenarios_bin" ]; then
  registry="$("$scenarios_bin" --list)"
  # `|| true`: zero table rows must reach the documented==0 guard below,
  # not abort the script via set -e + pipefail on grep's exit 1.
  documented_names="$(grep -oE '^\| `[a-z0-9-]+` \|' "$scenarios_md" | sed -E 's/^\| `//; s/` \|$//' || true)"
  documented=0
  # docs -> registry: every documented name must exist.
  while IFS= read -r name; do
    [ -n "$name" ] || continue
    documented=$((documented + 1))
    # Here-string, not printf|grep: under pipefail, grep -q exiting early
    # can SIGPIPE the printf and flip the pipeline status nondeterministically.
    if ! grep -qx -- "$name" <<< "$registry"; then
      echo "BROKEN: $scenarios_md documents scenario '$name' missing from the registry"
      fail=1
    fi
  done <<< "$documented_names"
  # A zero count means the catalog table stopped parsing (reformatted
  # rows?) — that would turn the whole check into a silent no-op.
  if [ "$documented" -eq 0 ]; then
    echo "BROKEN: no scenario names parsed from $scenarios_md's catalog table"
    fail=1
  fi
  # registry -> docs: every catalog entry must be documented.
  while IFS= read -r name; do
    [ -n "$name" ] || continue
    if ! grep -qx -- "$name" <<< "$documented_names"; then
      echo "BROKEN: registry scenario '$name' is undocumented in $scenarios_md"
      fail=1
    fi
  done <<< "$registry"
  echo "scenario registry check: $documented documented names verified against $scenarios_bin"
elif [ "${WFD_REQUIRE_SCENARIO_CHECK:-0}" = "1" ]; then
  echo "BROKEN: wfd_scenarios binary not found but WFD_REQUIRE_SCENARIO_CHECK=1"
  fail=1
else
  echo "note: wfd_scenarios binary not found — scenario-name check skipped (build it or set WFD_SCENARIOS_BIN)"
fi

# --- fuzz corpus cross-check ------------------------------------------------
fuzzing_md="docs/FUZZING.md"
corpus_mentions=0
# docs -> disk: every corpus path named anywhere in the docs must exist.
while IFS= read -r corpus_path; do
  [ -n "$corpus_path" ] || continue
  corpus_mentions=$((corpus_mentions + 1))
  if [ ! -f "$corpus_path" ]; then
    echo "BROKEN: docs name corpus file '$corpus_path' which does not exist"
    fail=1
  fi
done < <(git ls-files --cached --others --exclude-standard '*.md' |
         xargs grep -ohE 'tests/corpus/[A-Za-z0-9._-]+\.json' 2>/dev/null |
         sort -u)
# disk -> docs: every committed corpus file must be documented.
if [ -d tests/corpus ]; then
  while IFS= read -r corpus_file; do
    [ -n "$corpus_file" ] || continue
    name="$(basename "$corpus_file")"
    # -F: the filename is a literal, not a regex — '.' must not match
    # any character, or near-miss typos in the docs would pass.
    if ! grep -qF -- "$name" "$fuzzing_md" 2>/dev/null; then
      echo "BROKEN: corpus file '$corpus_file' is undocumented in $fuzzing_md"
      fail=1
    fi
  done < <(git ls-files --cached --others --exclude-standard 'tests/corpus/*.json')
fi
echo "fuzz corpus check: $corpus_mentions corpus paths named in docs verified"

# --- backticked source paths ------------------------------------------------
# Every backticked repo path (`src/...`, `tests/...`, `bench/...`, ...) must
# name an existing file or directory once `{a,b}` and `*` are expanded, and
# so must a `<module>/<file>` path whose module is a directory under src/
# (read as src/<module>/<file>). At the repo root only README.md and
# PAPER.md are checked: the other root files are logs, plans and
# related-work notes, which name files that have since gone or that belong
# to other repositories.
path_chars='[A-Za-z0-9_./{},*-]'
# True iff every brace/glob expansion of $1 exists. The span regex admits
# only path characters, so the eval can expand but never run anything.
expands_to_existing() {
  local expanded p
  shopt -s nullglob
  eval "expanded=($1)"
  shopt -u nullglob
  [ "${#expanded[@]}" -gt 0 ] || return 1
  for p in "${expanded[@]}"; do
    [ -e "$p" ] || return 1
  done
}
doc_files="$(git ls-files --cached --others --exclude-standard '*.md' |
             grep -E '/|^(README|PAPER)\.md$' || true)"
# One "file:path" line per backticked span made only of path characters.
spans="$(xargs -r grep -oHE "\`$path_chars+\`" <<< "$doc_files" | tr -d '`' || true)"
top_paths="$(grep -E "^[^:]+:(src|tests|bench|tools|examples|scripts|docs|perfbench)/." <<< "$spans" |
             cut -d: -f2- | sort -u || true)"
top_count=0
while IFS= read -r path; do
  [ -n "$path" ] || continue
  top_count=$((top_count + 1))
  if ! expands_to_existing "$path"; then
    echo "BROKEN: docs name '$path' which does not exist"
    fail=1
  fi
done <<< "$top_paths"
module_paths="$(grep -E "^[^:]+:[a-z_]+/." <<< "$spans" | cut -d: -f2- | sort -u || true)"
src_count=0
while IFS= read -r path; do
  [ -n "$path" ] || continue
  [ -d "src/${path%%/*}" ] || continue
  src_count=$((src_count + 1))
  if ! expands_to_existing "src/$path"; then
    echo "BROKEN: docs name '$path' but 'src/$path' does not exist"
    fail=1
  fi
done <<< "$module_paths"
# A zero count means the span parse broke — a silent no-op, not a pass.
if [ "$top_count" -eq 0 ]; then
  echo "BROKEN: no backticked source paths parsed from the docs"
  fail=1
fi
echo "source path check: $top_count top-level and $src_count src/-relative paths in $(wc -l <<< "$doc_files") files verified"

if [ "$fail" -ne 0 ]; then
  echo "docs link check FAILED"
  exit 1
fi
echo "docs link check OK"
