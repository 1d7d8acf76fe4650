// Declarative scenario subsystem: one Scenario value names everything a
// run needs — process count, failure pattern, network model, detector,
// protocol stack, workload and what the environment promises — so that
// tests, benches and the wfd_scenarios CLI all execute the same catalog
// instead of hand-rolling simulator setup.
//
// A run is judged by its stack's spec: the clauses that hold in every
// admissible run of that stack (evaluateScenarioRun lists them). An
// environment can only promise more — Omega stable from t = 0 gives
// strong TOB, the §7 proviso gives commit safety — and CheckerSet holds
// exactly those promises.
//
// A Scenario is a ClusterSpec plus a name, the environment's promises
// and the sharded-run fields, and it runs as one of two deployments. A
// flat entry (shards == 0) is one cluster: clusterSpec() returns its
// ClusterSpec slice and runScenario drives a wfd::Cluster (the golden
// digest-equivalence suite in tests/test_api.cpp pins that this
// reproduces the pre-facade instantiation bit-for-bit). A sharded entry
// (shards > 0) is the §7 committed-prefix KV service over S independent
// replica groups: shardedSpec() lowers it to a ShardedSpec, and
// runScenario drives a ShardedService through a ShardRouter with the
// entry's keyed workload and shard faults.
//
// A scenario is deterministic modulo its seed: runScenario(s, seed)
// always produces the same digest for the same (scenario, seed) pair,
// which is what the seed-determinism regression tests pin.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/cluster.h"
#include "shard/sharded_service.h"
#include "sim/simulator.h"

namespace wfd {

/// Keyed KV workload of a sharded entry, issued through the router: one
/// put every `interval` ticks, a read of an already-written key after
/// every `getEvery`-th put, and a final read of every written key after
/// the service settles. Values encode the op index (1-based), so every
/// (key, value) pair is unique — the identifiability the sharded_kv
/// checker needs.
struct KeyedWorkload {
  std::uint64_t puts = 160;
  std::uint64_t keys = 64;
  /// Key distribution: uniform, or Zipfian(theta) with rank 0 hottest.
  bool zipfian = false;
  double theta = 0.99;
  /// Ticks between consecutive puts.
  Time interval = 10;
  /// Issue a get after every getEvery-th put (0 = interleave none;
  /// the settle-time read pass still runs).
  std::uint64_t getEvery = 4;

  bool operator==(const KeyedWorkload&) const = default;
};

/// A timed fault against one replica of one shard (sharded entries).
struct ShardFault {
  enum class Kind : std::uint8_t { kCrash, kIsolate };
  Kind kind = Kind::kCrash;
  std::size_t shard = 0;
  ProcessId replica = 0;
  Time at = 0;
  /// kIsolate: partition heals at `until`.
  Time until = 0;
};

/// What the environment promises beyond the stack's spec. Every run is
/// judged by its stack's spec (evaluateScenarioRun); an entry sets a flag
/// here only when its environment guarantees more than every admissible
/// run does.
struct CheckerSet {
  /// tau-hat == 0 (strong TOB; paper property (2)), which Omega stable
  /// from t = 0 gives. Judged only where the spec has a delivery
  /// sequence (eTOB, commit-eTOB, TOB via consensus); ignored elsewhere.
  bool requireStrongTob = false;
  /// checkCommitSafety: no committed prefix is ever revoked (on every
  /// shard's trace for a sharded entry) — §7's guarantee under its
  /// proviso, a stable majority acknowledging one leader.
  bool commit = false;
  /// Additionally require at least one commit indication (stable-majority
  /// scenarios must make progress, not just stay vacuously safe); on a
  /// sharded entry, at least one put observed committed by the router.
  bool requireCommitProgress = false;
  /// Sharded entries: the shard faults must have re-homed keys
  /// (rebalances > 0). The sharded_kv clauses (committed reads,
  /// per-shard monotone reads, read-your-writes) always run there.
  bool requireRebalance = false;
};

/// A named, declarative run description: a ClusterSpec plus the
/// evaluation-side name, description and promises and the sharded-run
/// fields. Every field is data (or a pure factory), so a (scenario, seed)
/// pair fully determines the run. The per-run seed overrides
/// config.seed. On a sharded entry `config` is each shard's, with
/// processCount the replica count per shard.
struct Scenario : ClusterSpec {
  std::string name;
  std::string description;

  /// Number of independent replica groups behind a consistent-hash
  /// router; 0 = one cluster (a flat entry). A sharded entry leaves
  /// pattern, network, detector, ecInstances, kvReplica and automaton
  /// unset, schedules no broadcast workload (perProcess = 0), and
  /// describes its run with the two fields below.
  std::size_t shards = 0;
  KeyedWorkload keyed;
  std::vector<ShardFault> shardFaults;

  CheckerSet checks;
};

/// The deployment half of a flat entry: its ClusterSpec slice. A caller
/// that wants another config edits its copy (`spec.config = cfg;`).
/// Throws InvariantError on a sharded entry.
ClusterSpec clusterSpec(const Scenario& s);

/// Lowers a sharded entry to the service description: shard count,
/// stack, per-shard config (replicasPerShard = config.processCount) and
/// Omega parameters. Throws InvariantError on a flat entry, or when a
/// flat-only field is set.
ShardedSpec shardedSpec(const Scenario& s);

/// A scenario instantiated for one seed, ready to run (or to be driven
/// further by a bench that sweeps a knob on top of the catalog entry).
/// The failure pattern is reachable via sim->failurePattern(), the input
/// history via cluster->log().
struct ScenarioInstance {
  /// The facade cluster driving this run (owns the simulator).
  std::unique_ptr<Cluster> cluster;
  /// Borrowed from *cluster — kept so pre-facade call sites
  /// (inst.sim->run(), *inst.sim) read unchanged.
  Simulator* sim = nullptr;

  explicit ScenarioInstance(std::unique_ptr<Cluster> c)
      : cluster(std::move(c)), sim(&cluster->sim()) {}
};

/// Builds the cluster + workload for a flat (scenario, seed): a thin
/// adapter over Cluster(clusterSpec(s), seed).
ScenarioInstance instantiateScenario(const Scenario& s, std::uint64_t seed);

/// Outcome of one (scenario, seed) run: checker verdicts + metrics.
struct ScenarioRunResult {
  std::string scenario;
  std::uint64_t seed = 0;
  bool pass = false;
  /// One entry per failed clause, e.g. "broadcast: agreement".
  std::vector<std::string> failures;

  std::string stack;
  std::string network;
  Time endTime = 0;
  std::uint64_t eventsProcessed = 0;
  std::uint64_t messagesSent = 0;
  std::uint64_t messagesDelivered = 0;
  std::uint64_t duplicatesSuppressed = 0;
  /// Broadcast checker's observed convergence witness (0 otherwise).
  Time tauHat = 0;

  /// Sharded runs only (shards > 0; the counters above are then sums
  /// over the shards): the router's op-log totals, full refolds and
  /// quorum-loss rebalances.
  std::size_t shards = 0;
  std::uint64_t puts = 0;
  std::uint64_t committedPuts = 0;
  std::uint64_t gets = 0;
  std::uint64_t successfulGets = 0;
  std::uint64_t refolds = 0;
  std::uint64_t rebalances = 0;

  /// Portable digest of the full trace (seed-determinism tests pin it);
  /// shardedRunDigest for a sharded run.
  std::uint64_t digest = 0;
};

/// Judges a cluster that has already been driven (to its horizon, or
/// incrementally — the checkers only see the trace) by the spec of
/// s.stack, then by the promises in s.checks. The spec, per stack:
///  * eTOB, commit-eTOB, TOB via consensus: the broadcast core
///    (checkBroadcastRun: validity, agreement, no-creation,
///    no-duplication, causal order) and broadcastConverged at the end of
///    the run (every correct d_i holds every correct-origin message and
///    all sequences agree); tauHat is the observed tau-hat;
///  * gossip-LWW: all correct replicas hold identical LWW tables;
///  * Omega-EC: checkEcRun's integrity and validity, termination up to
///    s.ecInstances, and an agreed suffix witnessed inside that range.
/// A scenario with a custom `automaton` lowers no stack, so it runs no
/// spec. The explorer drives Clusters itself and calls this.
ScenarioRunResult evaluateScenarioRun(const Scenario& s, std::uint64_t seed,
                                      const Cluster& cluster);

/// Runs the scenario to its horizon and judges it. A sharded entry
/// issues its keyed workload through a router on its cadence (injecting
/// shard faults as their times pass), settles, reads every written key
/// back, then runs the sharded_kv clauses and every shard's broadcast
/// core (ShardedService admits only commit-eTOB; convergence is not
/// evaluated there), and the entry's promises.
ScenarioRunResult runScenario(const Scenario& s, std::uint64_t seed);

/// Serializes a result as one JSON object (single line, stable key order,
/// strings escaped by the common/json.h writer). The sharded keys appear
/// only for sharded runs, between tau_hat and digest.
std::string toJsonLine(const ScenarioRunResult& r);

/// The named catalog. Entries are registered in catalog.cpp; names are
/// unique, listed in registration order.
const std::vector<Scenario>& scenarioCatalog();

/// Catalog lookup; nullptr when the name is unknown.
const Scenario* findScenario(const std::string& name);

/// True for the big-n (n = 64..256) catalog family. The exhaustive
/// per-entry sweeps (tests/test_scenarios.cpp, tests/test_api.cpp) skip
/// these — each sweep entry runs ~10x per build and again under
/// ASan/TSan — and tests/test_large_cluster.cpp covers them once per
/// build instead. Keep the two sides in sync through this predicate.
inline bool isLargeClusterScenario(const Scenario& s) {
  return s.name.rfind("large-cluster-", 0) == 0;
}

}  // namespace wfd
