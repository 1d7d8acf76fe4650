// Portable JSON codec for FuzzPlans and corpus entries.
//
// A corpus entry is a plan plus the outcome its run is expected to
// reproduce — for a counterexample harvested by the explorer that is the
// (shrunken) violating plan and the checker clauses it violates; for a
// pinned regression plan it is pass = true. Replaying an entry
// (wfd_explore --replay, or the corpus_replay_* ctest targets) re-runs
// the plan and compares the outcome. Outcomes are pinned PER standard
// library: run schedules draw from std::uniform_int_distribution, which
// is implementation-defined (see checkers/trace_digest.h), so pass/fail,
// clause keys and digest are compared only when the entry records a
// digest for the running build's stdlib (or no digests at all — a
// declared schedule-independent plan); foreign stdlibs still verify the
// plan decodes and simulates cleanly.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "explore/fuzz_plan.h"

namespace wfd {

/// Schema tag embedded in every serialized plan / corpus entry.
inline constexpr const char* kFuzzPlanSchema = "wfd-fuzz-plan-v1";

/// Tag of the standard library this binary was built against, used to
/// key per-stdlib pinned digests ("libstdc++", "libc++" or "other").
const char* stdlibTag();

/// Plan -> canonical JSON object (schema field included).
Json encodeFuzzPlan(const FuzzPlan& plan);

/// JSON object -> plan. Returns nullopt and fills *error on malformed or
/// inadmissible input (admissibility is re-validated on decode so a
/// hand-edited corpus file cannot smuggle an inadmissible run in).
std::optional<FuzzPlan> decodeFuzzPlan(const Json& j, std::string* error);

/// The outcome a corpus entry pins.
struct CorpusExpectation {
  bool pass = true;
  /// Sorted, de-duplicated clause keys (failureKeys of the run result).
  std::vector<std::string> failureKeys;
  /// stdlib tag -> pinned trace digest (hex), possibly empty.
  std::vector<std::pair<std::string, std::uint64_t>> digests;
};

struct CorpusEntry {
  std::string name;
  /// Provenance note, e.g. the wfd_explore invocation that found it.
  std::string foundBy;
  /// Which oracle the expectation was evaluated under ("spec" or
  /// "strict-tob").
  std::string oracle = "spec";
  FuzzPlan plan;
  CorpusExpectation expect;
};

Json encodeCorpusEntry(const CorpusEntry& entry);
std::optional<CorpusEntry> decodeCorpusEntry(const Json& j, std::string* error);

/// Reads and decodes a corpus entry (or bare plan, wrapped with a
/// pass=true expectation) from a file. nullopt + *error on failure.
std::optional<CorpusEntry> loadCorpusFile(const std::string& path,
                                          std::string* error);

/// Writes `entry` to `path` as pretty-stable one-line JSON + newline.
/// Returns false on I/O failure.
bool saveCorpusFile(const std::string& path, const CorpusEntry& entry);

/// Lists the corpus files (*.json) directly inside `dir`, sorted by
/// path. Directory iteration order is filesystem-defined (readdir order
/// differs between ext4, tmpfs, overlayfs, ...), so every consumer that
/// replays a whole directory MUST go through this to keep its output
/// stable across machines. nullopt + *error when `dir` is not a
/// readable directory; an empty vector when it contains no .json files.
std::optional<std::vector<std::string>> listCorpusFiles(const std::string& dir,
                                                        std::string* error);

}  // namespace wfd
