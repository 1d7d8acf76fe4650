#include "shard/sharded_service.h"

#include <algorithm>

#include "common/ensure.h"
#include "common/hash.h"

namespace wfd {

std::uint64_t shardSeed(std::uint64_t serviceSeed, std::size_t shard) {
  // Counter-mode splitmix64, domain-tagged ("shard") so a shard seed can
  // never collide with the key/point hash families of the ring.
  return splitmix64(serviceSeed ^
                    (0x7368617264ULL + shard * 0x9e3779b97f4a7c15ULL));
}

ShardedService::ShardedService(ShardedSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)),
      seed_(seed),
      ring_(ConsistentHashRing::Config{.seed = seed}) {
  WFD_ENSURE_MSG(spec_.shards > 0, "a sharded service needs >= 1 shard");
  WFD_ENSURE_MSG(stackCapabilities(spec_.stack).committedPrefix,
                 "routers read committed prefixes: shards run commit-eTOB");
  WFD_ENSURE_MSG(spec_.replicasPerShard > 0,
                 "a shard needs >= 1 replica");
  shards_.reserve(spec_.shards);
  crashed_.assign(spec_.shards,
                  std::vector<bool>(spec_.replicasPerShard, false));
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
  WFD_ENSURE_MSG(s < shards_.size(), "shard index out of range");
  for (std::size_t p = 0; p < spec_.replicasPerShard; ++p) {
    if (!crashed_[s][p]) return static_cast<ProcessId>(p);
  }
  WFD_ENSURE_MSG(false, "every replica of the shard is crashed");
  return 0;
}

std::size_t ShardedService::majorityOf(std::size_t s) const {
  WFD_ENSURE_MSG(s < shards_.size(), "shard index out of range");
  return spec_.replicasPerShard / 2 + 1;
}

std::size_t ShardedService::correctReplicasOf(std::size_t s) const {
  WFD_ENSURE_MSG(s < shards_.size(), "shard index out of range");
  return static_cast<std::size_t>(
      std::count(crashed_[s].begin(), crashed_[s].end(), false));
}

bool ShardedService::hasQuorum(std::size_t s) const {
  return correctReplicasOf(s) >= majorityOf(s);
}

ShardedStats ShardedService::stats() const {
  ShardedStats out;
  out.perShard.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardStats row;
    // Read the shard through its current read replica; a shard with no
    // correct replica left reports zeros (nothing is readable there).
    const bool readable =
        std::count(crashed_[s].begin(), crashed_[s].end(), false) > 0;
    if (readable) {
      // Client is a cheap value handle; const_cast is confined to
      // obtaining one (stats() mutates nothing).
      Client c = const_cast<Cluster&>(*shards_[s]).client(readReplicaOf(s));
      const Client::KvStats kv = c.kvStats();
      row.keys = kv.keys;
      row.applied = kv.applied;
      row.rebuilds = kv.rebuilds;
      row.committedLen = c.committedPrefix().size();
    }
    row.correctReplicas = static_cast<std::size_t>(
        std::count(crashed_[s].begin(), crashed_[s].end(), false));
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
  WFD_ENSURE_MSG(!crashed_[s][replica], "replica is already crashed");
  shards_[s]->crashAt(replica, t);
  crashed_[s][replica] = true;
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
