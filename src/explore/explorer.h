// Randomized schedule exploration: the per-plan oracle, counterexample
// shrinking and corpus replay.
//
// The explorer is the active counterpart of the passive checker layer:
// admissible FuzzPlans sampled from a single 64-bit seed (fuzz_plan.h)
// run through the scenario driver, the stack's spec is the oracle,
// and a violating plan is delta-debugged down to a minimal one that
// still violates the same clause. Minimal plans are what get saved to
// tests/corpus/ and replayed as regressions. The loop that samples,
// runs and shrinks lives in campaign.h (runCampaign); this header holds
// the pieces it and the replay path share.
//
// Two oracles:
//  * kSpec — the stack's spec (evaluateScenarioRun): exactly the clauses
//    that are theorems for every admissible run of the stack (EC/eTOB
//    safety plus the liveness clauses the sampler's settle margin makes
//    fair). Any violation is a bug.
//  * kStrictTob — additionally promises STRONG total order (tau-hat == 0),
//    judged on the stacks with a delivery sequence. Under
//    pre-stabilization disagreement this is expected to fail: shrinking
//    such a failure yields a minimal witness of the eTOB/TOB separation
//    (the paper's whole point), which is how the committed corpus
//    entries were produced.
//
// Everything is deterministic: plan i of (seed, stack) is the same plan
// in every invocation and shrinking uses no randomness.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "explore/fuzz_plan.h"
#include "explore/plan_codec.h"
#include "scenario/scenario.h"

namespace wfd {

enum class FuzzOracle { kSpec, kStrictTob };

const char* fuzzOracleName(FuzzOracle oracle);
bool parseFuzzOracle(const std::string& name, FuzzOracle* out);

/// Lowers the plan to a Scenario under the oracle and runs it.
ScenarioRunResult runFuzzPlan(const FuzzPlan& plan, FuzzOracle oracle);

/// Stable identity of a violation: each failure clause truncated before
/// its " (" detail suffix, sorted and de-duplicated. Two runs violate
/// "the same property" iff their key sets intersect — the relation the
/// shrinker preserves.
std::vector<std::string> failureKeys(const ScenarioRunResult& result);

struct ShrinkResult {
  FuzzPlan plan;                 // the minimal failing plan
  ScenarioRunResult result;      // its run (still violating)
  std::uint64_t attempts = 0;    // candidate runs executed
  std::uint64_t accepted = 0;    // reductions that kept the violation
};

/// Greedy delta-debugging: candidate reductions (drop a crash, drop a
/// network layer, tighten a partition window, halve the workload / the
/// detector stabilization time / the instance count, drop a process) are
/// tried in a fixed order; a candidate is kept iff it is admissible and
/// still fails with at least one of the original failure keys. Restarts
/// from the first pass after every acceptance until a fixed point (or
/// the attempt budget) is reached. Deterministic when `keepGoing` is
/// null; a wall-clock budget polled via `keepGoing` stops the search
/// early and returns the best (smallest still-failing) plan so far.
/// `knownResult` (if given) must be `failing`'s own run result — it
/// spares re-simulating the largest plan of the whole search.
ShrinkResult shrinkFuzzPlan(const FuzzPlan& failing, FuzzOracle oracle,
                            std::uint64_t maxAttempts = 400,
                            const ScenarioRunResult* knownResult = nullptr,
                            const std::function<bool()>& keepGoing = nullptr);

/// Builds the corpus entry pinning `plan`'s outcome under `oracle` —
/// records the expected failure keys and the current stdlib's digest.
/// `knownResult` (if given) must be `plan`'s own run result under
/// `oracle`; otherwise the plan is run once here.
CorpusEntry makeCorpusEntry(std::string name, std::string foundBy,
                            const FuzzPlan& plan, FuzzOracle oracle,
                            const ScenarioRunResult* knownResult = nullptr);

/// Replays a corpus entry and compares the outcome against its
/// expectation. Returns true on match; mismatch descriptions are
/// appended to *whyNot when given. Outcome (pass/failure keys/digest) is
/// compared when the entry records a digest for this build's stdlib, or
/// records no digests at all (a declared schedule-independent plan); on
/// a foreign stdlib the replay still verifies the plan decodes and
/// simulates cleanly — run schedules are implementation-defined, so a
/// schedule-sensitive witness may legitimately behave differently there.
bool replayCorpusEntry(const CorpusEntry& entry, std::string* whyNot = nullptr);

}  // namespace wfd
