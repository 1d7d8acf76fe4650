// Multi-shard replicated KV service: a consistent-hash ring over
// INDEPENDENT eTOB replica groups.
//
// The paper's availability result is per replica group: eventual
// consistency needs only Omega, so one group stays live through
// failures that stall a linearizable store. This layer is how that
// building block becomes a service an operator would recognize: keys
// hash onto a ring of S shards, each shard is its own wfd::Cluster
// running the commit-eTOB stack wrapped in a KvStore replica, and a
// ShardedService owns the S clusters and steps them under ONE logical
// clock. The shards share nothing — no messages, no detector, no
// scheduler state — so a partitioned or crashed shard cannot stall the
// others by construction (the cross-shard-independence tests pin this
// with byte-identical per-shard digests).
//
// Rebalancing: the service tracks injected crashes per shard; when a
// shard's correct replicas drop below its majority quorum, the §7
// commit path can no longer advance there, so the shard is removed from
// the ring (spec.rebalanceOnQuorumLoss) and its keys re-home to the
// surviving shards — E[migration] = 1/S of the key space, exactly the
// dead shard's share, while every other key keeps its owner. Routing is
// client-side (shard/shard_router.h); the ring is a pure function of
// (seed, live shard set), so every router sharing the service agrees.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "api/cluster.h"
#include "shard/hash_ring.h"

namespace wfd {

class CommitEtobAutomaton;

/// Declarative description of a sharded deployment. Like ClusterSpec,
/// every field is data or a pure factory: (spec, seed) fully determines
/// the service (per-shard seeds are derived from the service seed by
/// splitmix64, the ring from the seed and the live shard set).
struct ShardedSpec {
  /// Number of independent replica groups.
  std::size_t shards = 4;
  /// Processes per shard cluster (majority quorum = half + 1).
  std::size_t replicasPerShard = 3;
  /// Per-shard ordering stack. Only commit-eTOB is accepted: its §7
  /// committed prefixes are what the router serves reads from.
  AlgoStack stack = AlgoStack::kCommitEtob;
  /// Per-shard scheduler parameters (processCount is overridden with
  /// replicasPerShard).
  SimConfig config;
  Time tauOmega = 0;
  OmegaPreStabilization omegaMode = OmegaPreStabilization::kStable;
  /// Optional per-shard network model factory; nullptr = uniform delay
  /// from the config on every shard.
  std::function<std::shared_ptr<const NetworkModel>(std::size_t shard,
                                                    const SimConfig&)>
      network;
  /// Remove a shard from the ring when its correct replicas drop below
  /// majority. Off = keys keep routing to the dead shard (the mutation
  /// tests use this to prove the rebalance path matters).
  bool rebalanceOnQuorumLoss = true;
};

/// Per-shard service counters, read from the shard's current read
/// replica (lowest-id replica not crashed).
struct ShardStats {
  std::size_t keys = 0;
  std::uint64_t applied = 0;
  std::uint64_t rebuilds = 0;
  /// Length of the read replica's §7 committed prefix.
  std::uint64_t committedLen = 0;
  std::size_t correctReplicas = 0;
  bool inRing = true;
};

/// Aggregated service counters: per-shard rows plus totals. This is the
/// service-level answer to Client::kvStats, which is replica-group-local
/// and silently undercounts once keys hash off-process.
struct ShardedStats {
  std::vector<ShardStats> perShard;
  std::size_t keys = 0;
  std::uint64_t applied = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t committedLen = 0;
  std::size_t shardsInRing = 0;
};

class ShardedService {
 public:
  /// Throws InvariantError unless spec.stack is kCommitEtob.
  ShardedService(ShardedSpec spec, std::uint64_t seed);

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  // --- Introspection --------------------------------------------------------

  const ShardedSpec& spec() const { return spec_; }
  std::uint64_t seed() const { return seed_; }
  std::size_t shardCount() const { return shards_.size(); }
  /// The shard's underlying cluster (fault injection, checkers, tests).
  Cluster& shard(std::size_t s);
  const Cluster& shard(std::size_t s) const;
  const ConsistentHashRing& ring() const { return ring_; }
  /// The service's logical clock: every shard has been stepped to here.
  Time now() const { return now_; }

  /// Shard currently owning `key` (ring lookup over live shards).
  std::size_t ownerOf(std::uint64_t key) const;
  /// Lowest-id replica of `s` with no injected crash — where routers
  /// read and write.
  ProcessId readReplicaOf(std::size_t s) const;
  /// The §7 ordering layer of `replica` of shard `s`: its committed
  /// prefix, commit-conflict count and message store, which routers fold
  /// reads from. The reference stays valid for the service's lifetime.
  const CommitEtobAutomaton& orderingOf(std::size_t s, ProcessId replica) const;
  /// True while >= majority of the shard's replicas have no injected
  /// crash (the §7 proviso's quorum precondition).
  bool hasQuorum(std::size_t s) const;
  /// Replicas of `s` with no injected crash.
  std::size_t correctReplicasOf(std::size_t s) const;
  /// Ring removals performed so far (quorum-loss rebalances).
  std::size_t rebalances() const { return rebalances_; }

  ShardedStats stats() const;

  // --- One logical clock over S simulators ----------------------------------

  /// Steps EVERY shard cluster to time t (monotone). Returns true while
  /// at least one shard can still make progress.
  bool advanceTo(Time t);
  bool advanceBy(Time d);
  /// Runs every shard to quiescence (Cluster::runUntilQuiescent), then
  /// re-aligns all shards on the latest stop time and re-probes until
  /// the common clock is stable. Returns the aligned stop time.
  Time runUntilQuiescent(Time window = 0);

  // --- Fault injection and rebalancing --------------------------------------

  /// Crashes `replica` of shard `s` at time t (>= now). Accounted
  /// against the shard's quorum immediately — routing is conservative
  /// about a crash already scheduled — and, when the quorum is lost and
  /// spec.rebalanceOnQuorumLoss holds, removes the shard from the ring
  /// (never the last one).
  void crashReplica(std::size_t s, ProcessId replica, Time t);

  /// Partitions `replica` of shard `s` from its own group during
  /// [start, end) — shard-local by construction; no other shard can
  /// notice. Does NOT touch the ring: partitions heal, crashes do not.
  void isolateReplica(std::size_t s, ProcessId replica, Time start, Time end);

 private:
  std::size_t majorityOf(std::size_t s) const;

  ShardedSpec spec_;
  std::uint64_t seed_ = 0;
  Time now_ = 0;
  std::vector<std::unique_ptr<Cluster>> shards_;
  ConsistentHashRing ring_;
  std::size_t rebalances_ = 0;
};

}  // namespace wfd
