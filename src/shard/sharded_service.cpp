#include "shard/sharded_service.h"

#include <algorithm>

#include "common/ensure.h"
#include "common/hash.h"
#include "etob/commit_etob.h"
#include "rsm/replica.h"
#include "rsm/state_machines.h"

namespace wfd {

namespace {

/// Per-shard seed: counter-mode splitmix64, domain-tagged ("shard") so a
/// shard seed can never collide with the key/point hash families of the
/// ring, and shard schedules are independent draws from the service seed.
std::uint64_t shardSeed(std::uint64_t serviceSeed, std::size_t shard) {
  return splitmix64(serviceSeed ^
                    (0x7368617264ULL + shard * 0x9e3779b97f4a7c15ULL));
}

}  // namespace

ShardedService::ShardedService(ShardedSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)),
      seed_(seed),
      ring_(ConsistentHashRing::Config{.seed = seed}) {
  WFD_ENSURE_MSG(spec_.shards > 0, "a sharded service needs >= 1 shard");
  WFD_ENSURE_MSG(spec_.stack == AlgoStack::kCommitEtob,
                 "routers read committed prefixes: shards run commit-eTOB");
  WFD_ENSURE_MSG(spec_.replicasPerShard > 0,
                 "a shard needs >= 1 replica");
  shards_.reserve(spec_.shards);
  for (std::size_t s = 0; s < spec_.shards; ++s) {
    ClusterSpec cs;
    cs.stack = spec_.stack;
    cs.config = spec_.config;
    cs.config.processCount = spec_.replicasPerShard;
    cs.tauOmega = spec_.tauOmega;
    cs.omegaMode = spec_.omegaMode;
    cs.kvReplica = true;
    // kvReplica clusters take writes through Client::put only — the
    // default scheduled broadcast workload is rejected there.
    cs.workload.perProcess = 0;
    if (spec_.network) {
      cs.network = [factory = spec_.network, s](const SimConfig& c) {
        return factory(s, c);
      };
    }
    shards_.push_back(
        std::make_unique<Cluster>(std::move(cs), shardSeed(seed, s)));
    ring_.addNode(static_cast<std::uint32_t>(s));
  }
}

Cluster& ShardedService::shard(std::size_t s) {
  WFD_ENSURE_MSG(s < shards_.size(), "shard index out of range");
  return *shards_[s];
}

const Cluster& ShardedService::shard(std::size_t s) const {
  WFD_ENSURE_MSG(s < shards_.size(), "shard index out of range");
  return *shards_[s];
}

std::size_t ShardedService::ownerOf(std::uint64_t key) const {
  return ring_.ownerOf(key);
}

ProcessId ShardedService::readReplicaOf(std::size_t s) const {
  const ProcessId p = shard(s).pattern().lowestCorrect();
  WFD_ENSURE_MSG(p != kNoProcess, "every replica of the shard is crashed");
  return p;
}

const CommitEtobAutomaton& ShardedService::orderingOf(std::size_t s,
                                                     ProcessId replica) const {
  // Every shard is a kvReplica commit-eTOB cluster (constructor).
  const auto* r = dynamic_cast<const ReplicaAutomaton<CommitEtobAutomaton, KvStore>*>(
      &shard(s).sim().automaton(replica));
  WFD_ENSURE_MSG(r != nullptr, "a shard replica is not a commit-eTOB KV replica");
  return r->ordering();
}

std::size_t ShardedService::majorityOf(std::size_t s) const {
  WFD_ENSURE_MSG(s < shards_.size(), "shard index out of range");
  return spec_.replicasPerShard / 2 + 1;
}

std::size_t ShardedService::correctReplicasOf(std::size_t s) const {
  const FailurePattern& fp = shard(s).pattern();
  std::size_t correct = 0;
  for (ProcessId p = 0; p < fp.size(); ++p) {
    if (fp.correct(p)) ++correct;
  }
  return correct;
}

bool ShardedService::hasQuorum(std::size_t s) const {
  return correctReplicasOf(s) >= majorityOf(s);
}

ShardedStats ShardedService::stats() const {
  ShardedStats out;
  out.perShard.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardStats row;
    row.correctReplicas = correctReplicasOf(s);
    // Read the shard through its current read replica; a shard with no
    // correct replica left reports zeros (nothing is readable there).
    if (row.correctReplicas > 0) {
      // Client is a cheap value handle; const_cast is confined to
      // obtaining one (stats() mutates nothing).
      Client c = const_cast<Cluster&>(*shards_[s]).client(readReplicaOf(s));
      const Client::KvStats kv = c.kvStats();
      row.keys = kv.keys;
      row.applied = kv.applied;
      row.rebuilds = kv.rebuilds;
      row.committedLen = c.committedPrefix().size();
    }
    row.inRing = ring_.contains(static_cast<std::uint32_t>(s));
    out.keys += row.keys;
    out.applied += row.applied;
    out.rebuilds += row.rebuilds;
    out.committedLen += row.committedLen;
    if (row.inRing) ++out.shardsInRing;
    out.perShard.push_back(row);
  }
  return out;
}

bool ShardedService::advanceTo(Time t) {
  WFD_ENSURE_MSG(t >= now_, "the service clock is monotone");
  bool progress = false;
  for (auto& sh : shards_) {
    if (sh->advanceTo(t)) progress = true;
  }
  now_ = t;
  return progress;
}

bool ShardedService::advanceBy(Time d) { return advanceTo(now_ + d); }

Time ShardedService::runUntilQuiescent(Time window) {
  // Each shard settles independently — there are no cross-shard messages
  // to wake a quiescent shard, so one settle pass per shard plus a final
  // re-alignment on the latest stop time is a fixed point of the whole
  // service.
  Time stop = now_;
  for (auto& sh : shards_) {
    stop = std::max(stop, sh->runUntilQuiescent(window));
  }
  for (auto& sh : shards_) {
    if (sh->now() < stop) sh->advanceTo(stop);
  }
  now_ = stop;
  return now_;
}

void ShardedService::crashReplica(std::size_t s, ProcessId replica, Time t) {
  WFD_ENSURE_MSG(s < shards_.size(), "shard index out of range");
  WFD_ENSURE_MSG(replica < spec_.replicasPerShard,
                 "replica index out of range");
  WFD_ENSURE_MSG(shards_[s]->pattern().correct(replica),
                 "replica is already crashed");
  shards_[s]->crashAt(replica, t);
  // Quorum accounting is eager: the crash is scheduled, so routing stops
  // trusting the shard now rather than at t (conservative, and what
  // keeps the ring a pure function of the injected-fault history).
  if (!hasQuorum(s) && spec_.rebalanceOnQuorumLoss &&
      ring_.contains(static_cast<std::uint32_t>(s)) && ring_.nodeCount() > 1) {
    ring_.removeNode(static_cast<std::uint32_t>(s));
    ++rebalances_;
  }
}

void ShardedService::isolateReplica(std::size_t s, ProcessId replica,
                                    Time start, Time end) {
  WFD_ENSURE_MSG(s < shards_.size(), "shard index out of range");
  WFD_ENSURE_MSG(replica < spec_.replicasPerShard,
                 "replica index out of range");
  shards_[s]->isolate(replica, start, end);
}

}  // namespace wfd
