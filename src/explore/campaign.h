// Fuzz campaigns: the one exploration loop. A pool of worker threads
// executes thousands of independent FuzzPlans concurrently, with
// coverage-guided seed scheduling on top. Generation 0 is the sampled
// plan stream (sampleFuzzPlan), so a one-generation campaign — the
// default — is plain randomized exploration; each violation is shrunk
// with the explorer's delta-debugger (explorer.h).
//
// FuzzPlans are pure data and every Cluster is self-contained (no module
// above src/common/ holds shared mutable state — see the thread-affinity
// contract in api/cluster.h), so a campaign is embarrassingly parallel:
// workers claim plan indices 0, 1, 2, ... from one mutex-guarded counter,
// each owns the Cluster of the plan it is running, and each run writes
// only the report slot of the index it claimed. Plans and slots are made
// as indices are claimed, never ahead, so the size of a generation costs
// nothing until its runs happen. The report — and
// therefore wfd_explore's stdout — is byte-identical regardless of the
// thread count. `--jobs 8` may only ever be FASTER than `--jobs 1`,
// never different.
//
// Coverage-guided scheduling (the greybox-fuzzer loop, transplanted to
// schedule exploration): every run is folded into a CoverageMap of
// feature strings — fault-environment shape (crash/partition/chaos
// layers), detector mode, checker near-misses (the observed tau-hat
// disagreement window), delivered-sequence digest classes. Between
// generations the scheduler ranks prior runs by the RARITY of their
// features and re-queues deterministic mutations of the rarest ones, so
// later generations spend their budget where the campaign has seen the
// least behaviour. Mutation draws are seeded from
// (master seed, generation, slot, parent fingerprint) — no wall clock,
// no thread ids — so the whole campaign is a pure function of its
// options, and generation g+1 depends only on the results of
// generations <= g in index order, never on completion order.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "explore/explorer.h"
#include "explore/fuzz_plan.h"

namespace wfd {

/// Order-independent accumulator of feature-string hit counts. Summing
/// counts commutes, so adding signatures in ANY order yields the same
/// map (pinned in tests/test_campaign.cpp).
class CoverageMap {
 public:
  void add(const std::string& feature, std::uint64_t hits = 1);
  void addSignature(const std::vector<std::string>& features);

  /// Hit count of one feature (0 when never seen).
  std::uint64_t count(const std::string& feature) const;
  /// Rarity of a signature: the minimum hit count over its features
  /// (UINT64_MAX for an empty signature — nothing to learn from it).
  std::uint64_t rarity(const std::vector<std::string>& features) const;

  std::size_t distinctFeatures() const { return counts_.size(); }
  std::uint64_t totalHits() const;
  const std::map<std::string, std::uint64_t>& features() const {
    return counts_;
  }

  /// {"<feature>": count, ...} — sorted keys, so the dump is canonical.
  Json toJson() const;

 private:
  std::map<std::string, std::uint64_t> counts_;
};

/// The per-run feature signature the coverage map accumulates: stack,
/// fault-environment shape (crash count bucket / crash-at-0, partition
/// recurrence + isolation shape, chaos / skew / slow-link layers),
/// detector mode, process count, outcome (pass or per-clause failure
/// keys), the tau-hat near-miss bucket (log2 of the observed
/// disagreement window — a strong-total-order near-miss under the spec
/// oracle), and a 6-bit delivered-sequence digest class. Deterministic
/// in (plan, result); sorted and de-duplicated.
std::vector<std::string> coverageSignature(const FuzzPlan& plan,
                                           const ScenarioRunResult& result);

/// One deterministic mutation of `base` drawn from `mutationSeed`:
/// re-seed the schedule, add/drop a crash, add/resize a partition
/// window, toggle the chaos/skew/slow-link layers, scale the workload,
/// halve tau_Omega, or grow the system by one process. The result is
/// re-validated (and its horizon re-derived), so a returned plan is
/// always admissible AND fairness-preserving — tau_Omega never grows,
/// keeping the sampler's liveness-fairness caps intact. nullopt when
/// every candidate mutation of this seed lands inadmissible.
std::optional<FuzzPlan> mutateFuzzPlan(const FuzzPlan& base,
                                       std::uint64_t mutationSeed);

struct CampaignOptions {
  AlgoStack stack = AlgoStack::kEtob;
  /// Generation-0 budget: sampleFuzzPlan(stack, seed, i) for i in
  /// [0, runs).
  std::uint64_t runs = 100;
  std::uint64_t seed = 1;
  FuzzOracle oracle = FuzzOracle::kSpec;
  bool shrink = true;
  std::uint64_t maxShrinkAttempts = 400;
  /// Worker threads. 1 (the default) executes inline on the calling
  /// thread — no pool, no threads, bit-for-bit the sequential path.
  unsigned jobs = 1;
  /// Total generations including generation 0. Generations > 0 run
  /// coverage-guided mutations of the rarest prior runs; the default 1
  /// is exactly the sampled plan stream.
  std::uint64_t generations = 1;
  /// Mutation budget per generation > 0; 0 derives runs / 4.
  std::uint64_t mutationsPerGeneration = 0;
  /// Opt-in big-cluster genome for generation 0 and refill sampling
  /// (sampleFuzzPlan's bigClusterMaxN). 0 = legacy plan stream,
  /// byte-identical to prior builds.
  std::size_t bigClusterMaxN = 0;
  /// Opt-in fair-lossy genome for generation 0 and refill sampling
  /// (sampleFuzzPlan's lossGenome). false = legacy plan stream,
  /// byte-identical to prior builds.
  bool lossGenome = false;
};

/// One executed campaign run, addressed by (generation, index) — the
/// report slot its run writes, whichever thread ran it.
struct CampaignRunRecord {
  std::uint64_t generation = 0;
  std::uint64_t index = 0;
  FuzzPlan plan;
  ScenarioRunResult result;
  std::vector<std::string> signature;
};

struct CampaignViolation {
  std::uint64_t generation = 0;
  std::uint64_t index = 0;
  FuzzPlan plan;
  ScenarioRunResult result;
  ShrinkResult shrunken;
};

struct CampaignReport {
  /// Every executed run, sorted by (generation, index).
  std::vector<CampaignRunRecord> runs;
  /// Every violation, sorted by (generation, index), each shrunken
  /// (shrinking itself executes on the pool).
  std::vector<CampaignViolation> violations;
  /// Accumulated over all runs in (generation, index) order.
  CoverageMap coverage;
  /// True when keepGoing() stopped the campaign before all its runs
  /// executed.
  bool truncated = false;
};

/// Runs the campaign: generation 0 is the sampled plan stream,
/// subsequent generations are coverage-guided mutations; the workers
/// claim a generation's plan indices in order, the plan of an index is
/// made when it is claimed, each run writes its own slot, and violations
/// shrink on the pool afterwards. The report is a
/// pure function of `options` (for any jobs value). `keepGoing`
/// (nullable) is polled before each claim and between shrink attempts;
/// the first false stops all claims, so a generation keeps exactly the
/// runs [0, k) it started, `truncated` is set and no later generation
/// runs — the runs that DID execute are still the deterministic ones, at
/// any jobs value. Claims poll under one lock; shrink attempts poll from
/// the worker threads concurrently.
CampaignReport runCampaign(const CampaignOptions& options,
                           const std::function<bool()>& keepGoing = nullptr);

/// The canonical per-run JSON line wfd_explore prints (and the seed-
/// stability tests compare): sorted keys, no timing, no thread info, plan
/// referenced by fingerprint — so stdout stays byte-identical across
/// --jobs values and 2000-run sweeps stay one short line per run.
std::string campaignRunJsonLine(const CampaignRunRecord& rec);

/// Canonical per-stack coverage summary line.
std::string campaignCoverageJsonLine(AlgoStack stack,
                                     const CampaignReport& report);

}  // namespace wfd
