// The benchmark's four workloads and what one repetition of each reports.
//
// Three KV workloads drive the sharded service through its public
// surface (ShardedService, ShardRouter, checkShardedKvRun); the explorer
// workload drives the per-plan pipeline wfd_explore runs (sampleFuzzPlan
// -> planScenario -> instantiateScenario -> Cluster::runToHorizon ->
// evaluateScenarioRun). A repetition is a pure function of (workload,
// seed): every repetition of a run replays the same generated inputs, so
// digests and work counters repeat exactly and only wall times vary.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/capabilities.h"
#include "explore/fuzz_plan.h"
#include "scenario/scenario.h"
#include "shard/shard_router.h"
#include "tracer.h"

namespace perfbench {

/// A named, human-readable figure (printed, not part of the JSON line).
struct Figure {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// What one repetition produced.
struct RepOutcome {
  /// Wall seconds of the timed window (KV: first put to end of settle;
  /// explorer: the whole plan loop).
  double windowSeconds = 0.0;
  /// Median wall seconds of this repetition's set-up samples.
  double setupSeconds = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Committed puts (KV) or checked plans (explorer).
  std::uint64_t completed = 0;
  /// shardedRunDigest (KV) or a fold of every plan's trace digest.
  std::uint64_t digest = 0;
  /// Checker / oracle problems; empty = the outputs verified.
  std::vector<std::string> problems;
  /// Exact work counters, identical on every repetition of a seed.
  std::map<std::string, double> counters;
  /// Seed-determined end-to-end figures (simulated ticks, ratios).
  std::vector<Figure> figures;
};

// ------------------------------------------------------------------ KV

struct KvShape {
  std::size_t shards = 1;
  bool zipfian = false;
  std::uint64_t keySpace = 4096;
  std::uint64_t puts = 0;
  std::uint32_t getsPerPut = 0;
  /// 10% i.i.d. loss on every link plus the two-crash schedule.
  bool faults = false;
};

/// The generated client operations — all the service ever sees.
struct KvOps {
  std::vector<std::uint64_t> putKeys;
  /// getsPerPut reads after each put, in issue order.
  std::vector<std::uint64_t> getKeys;
};

KvOps generateKvOps(const KvShape& shape, std::uint64_t seed);

/// The op log of one repetition, for the failure accounting and its
/// mutation tests: router ops plus, per logical put, the op-log indices
/// of its attempts (a put still pending after kRetryAfterTicks is
/// re-issued with a fresh value to the key's current owner).
struct KvLog {
  std::vector<wfd::RouterOp> ops;
  std::vector<std::vector<std::size_t>> attempts;
};

struct KvFailures {
  std::uint64_t unresolvedPuts = 0;
  /// Gets the sharded_kv checker flags (uncommitted, non-monotone or
  /// stale reads) plus checker errors.
  std::uint64_t flaggedGets = 0;
  std::vector<std::string> problems;

  std::uint64_t failed() const { return unresolvedPuts + flaggedGets; }
};

/// Puts never observed committed plus gets the checker flags.
KvFailures countKvFailures(const KvLog& log);

/// Runs one repetition. `check` runs checkShardedKvRun (outside the
/// timed window); `log` (nullable) receives the op log.
RepOutcome runKvRep(const KvShape& shape, std::uint64_t seed, Tracer& tracer,
                    bool check, KvLog* log = nullptr);

// ------------------------------------------------------------ explorer

struct ExploreShape {
  std::uint64_t plansPerStack = 0;
  /// Plan genomes come from this fixed master seed; the workload seed
  /// picks each plan's schedule (simSeed).
  std::uint64_t masterSeed = 1;
};

/// Plan i of `stack`: sampled from the shape's master seed, scheduled by
/// the workload seed.
wfd::FuzzPlan benchPlan(const ExploreShape& shape, wfd::AlgoStack stack,
                        std::uint64_t seed, std::uint64_t index);

/// Simulator work of the plans run so far (exact counts).
struct PlanWork {
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  std::uint64_t weight = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t acks = 0;
  std::uint64_t dropped = 0;
};

/// One plan through planScenario -> instantiateScenario ->
/// Cluster::runToHorizon -> evaluateScenarioRun, a span around each
/// stage. The result equals runFuzzPlan(plan, FuzzOracle::kSpec).
wfd::ScenarioRunResult runPlanPipeline(const wfd::FuzzPlan& plan,
                                       Tracer& tracer, std::int64_t request,
                                       std::int32_t lane, PlanWork* work);

RepOutcome runExploreRep(const ExploreShape& shape, std::uint64_t seed,
                         Tracer& tracer);

// ------------------------------------------------------------- registry

/// Set-up samples per repetition (median reported).
inline constexpr int kSetupSamples = 9;

/// Median of a non-empty sample.
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (0 < p <= 1) of a sorted, non-empty sample.
template <typename T>
T nearestRank(const std::vector<T>& sorted, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

struct WorkloadDef {
  const char* name;
  /// Seed used when --seed is absent, and by the self-test.
  std::uint64_t defaultSeed;
  bool isKv;
  KvShape kv;
  ExploreShape explore;
};

const std::vector<WorkloadDef>& workloads();
const WorkloadDef* findWorkload(const std::string& name);

}  // namespace perfbench
