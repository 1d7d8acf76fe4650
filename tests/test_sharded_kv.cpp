// Integration, regression and mutation tests for the sharded KV
// service: pinned digests for every sharded-* catalog entry, the
// cross-shard-independence byte-identity property, the crash-rebalance
// path (and the mutation proving it matters), service-level stats
// aggregation, the router's owner-only read fold (differential against
// polling before every get), its fold across a lagging read replica, its
// O(1) fold check (differential against the always-compare fold through
// a lagging replica, a rebalance, a strength join, and reads moving to a
// diverged or a lagging-then-diverging replica), and adversarial op logs
// against the sharded_kv checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "checkers/tob_checker.h"
#include "checkers/trace_digest.h"
#include "common/ensure.h"
#include "common/hash.h"
#include "etob/commit_etob.h"
#include "rsm/state_machines.h"
#include "scenario/scenario.h"
#include "shard/shard_router.h"
#include "shard/sharded_kv_checker.h"
#include "shard/sharded_service.h"
#include "shard/zipf.h"
#include "sim/lossy_model.h"
#include "sim/network_model.h"

namespace wfd {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3};

// Generated at the introduction of the sharded subsystem (PR 10);
// indexed [entry][seed in kSeeds]. Same caveat as every pin: portable
// per standard library (the schedules draw from
// std::uniform_int_distribution, the Zipfian CDF from libm). A change
// here is a behavior change in the router, the fold, a shard schedule,
// or the checker's version accounting — not a refactor.
constexpr const char* kShardedEntries[3] = {
    "sharded-uniform-commit", "sharded-zipf-hotkey", "sharded-rebalance-crash"};
constexpr std::uint64_t kPinnedDigests[3][3] = {
    {0xc695d8e2ba4b2c19ULL, 0xa1d4a9d1e2797418ULL, 0xa0a69bd7f50685ccULL},
    {0x732558c62fd5ba76ULL, 0x54bcac4c27ea7e75ULL, 0xe4b55a1ceb6a4ceaULL},
    {0x6704b81ca40c470dULL, 0x43683a6dd31b6cfdULL, 0xfb907e959410b4caULL},
};

TEST(ShardedScenarios, CatalogEntriesPassAndMatchPinnedDigests) {
  for (std::size_t i = 0; i < 3; ++i) {
    const Scenario* s = findScenario(kShardedEntries[i]);
    ASSERT_NE(s, nullptr) << kShardedEntries[i];
    for (std::size_t k = 0; k < 3; ++k) {
      const ScenarioRunResult r = runScenario(*s, kSeeds[k]);
      EXPECT_TRUE(r.pass) << s->name << " seed " << kSeeds[k] << ": "
                          << (r.failures.empty() ? "" : r.failures[0]);
      EXPECT_EQ(r.digest, kPinnedDigests[i][k]) << s->name << " seed " << kSeeds[k];
      EXPECT_GT(r.committedPuts, 0u) << s->name;
    }
  }
}

TEST(ShardedScenarios, LoweringsRejectTheOtherKind) {
  const Scenario* sharded = findScenario("sharded-uniform-commit");
  const Scenario* flat = findScenario("stable-leader");
  ASSERT_NE(sharded, nullptr);
  ASSERT_NE(flat, nullptr);
  EXPECT_THROW(clusterSpec(*sharded), InvariantError);
  EXPECT_THROW(instantiateScenario(*sharded, 1), InvariantError);
  EXPECT_THROW(shardedSpec(*flat), InvariantError);
  // A flat field on a sharded entry would be dropped by the lowering.
  Scenario withPattern = *sharded;
  withPattern.pattern = [](std::size_t n) { return FailurePattern::noFailures(n); };
  EXPECT_THROW(shardedSpec(withPattern), InvariantError);
  EXPECT_EQ(shardedSpec(*sharded).replicasPerShard, 3u);
}

// --- Cross-shard independence ----------------------------------------------

ShardedSpec smallSpec(std::size_t shards) {
  ShardedSpec spec;
  spec.shards = shards;
  spec.replicasPerShard = 3;
  spec.stack = AlgoStack::kCommitEtob;
  spec.config.maxTime = 40'000;
  spec.config.timeoutPeriod = 10;
  spec.config.minDelay = 20;
  spec.config.maxDelay = 40;
  spec.omegaMode = OmegaPreStabilization::kStable;
  return spec;
}

// Issues `puts` uniform-key writes through the router on a 10-tick
// cadence, polling as it goes, then settles on a FIXED 2000-tick window
// and reads every key back. The fixed window (rather than
// runUntilQuiescent) keeps the end time identical across fault
// variants, so whole-trace digests of unfaulted shards are comparable
// byte-for-byte.
void driveUniform(ShardedService& svc, ShardRouter& router,
                  std::uint64_t workloadSeed, std::uint64_t puts) {
  UniformKeyGenerator gen(32, splitmix64(workloadSeed ^ 0x647276ULL));
  std::vector<std::uint64_t> written;
  for (std::uint64_t i = 0; i < puts; ++i) {
    svc.advanceBy(10);
    const std::uint64_t key = gen.next();
    router.put(key, i + 1);
    written.push_back(key);
    router.poll();
  }
  svc.advanceBy(2000);
  router.poll();
  for (const std::uint64_t key : written) router.get(key);
}

TEST(ShardedKv, CrossShardIndependenceUnderIsolation) {
  // Run A: fault-free. Run B: one replica of shard 2 is partitioned
  // from its group for a long window. The ring never changes, so every
  // OTHER shard must produce a byte-identical trace — shards share
  // nothing, and the checkers' own digests prove it.
  ShardedService a(smallSpec(4), 77);
  ShardRouter ra(a);
  driveUniform(a, ra, 77, 64);

  ShardedService b(smallSpec(4), 77);
  b.isolateReplica(2, 1, 300, 900);
  ShardRouter rb(b);
  driveUniform(b, rb, 77, 64);

  bool faultedShardTouched = false;
  for (std::size_t s = 0; s < 4; ++s) {
    const std::uint64_t da = traceDigest(a.shard(s).sim().trace());
    const std::uint64_t db = traceDigest(b.shard(s).sim().trace());
    if (s == 2) {
      faultedShardTouched = (da != db);
    } else {
      EXPECT_EQ(da, db) << "shard " << s << " noticed a fault on shard 2";
    }
  }
  // The isolation window must actually have perturbed shard 2 (else the
  // equality above is vacuous).
  EXPECT_TRUE(faultedShardTouched);

  // Majority survived the partition, so the faulted run still passes
  // the full checker.
  const ShardedKvReport report = checkShardedKvRun(rb.ops());
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_GT(report.committedPuts, 0u);
}

// --- Crash rebalancing ------------------------------------------------------

TEST(ShardedKv, QuorumLossRebalancesTheRing) {
  ShardedService svc(smallSpec(4), 5);
  ShardRouter router(svc);
  driveUniform(svc, router, 5, 32);

  // Find a key currently owned by shard 1, then crash shard 1 below
  // its majority (replicas 1 and 2 of 3; replica 0 stays, so the read
  // replica never changes).
  std::uint64_t victim = 0;
  while (svc.ownerOf(victim) != 1) ++victim;
  svc.crashReplica(1, 1, svc.now() + 1);
  EXPECT_EQ(svc.rebalances(), 0u);  // still at quorum
  EXPECT_TRUE(svc.hasQuorum(1));
  svc.crashReplica(1, 2, svc.now() + 2);
  EXPECT_FALSE(svc.hasQuorum(1));
  EXPECT_EQ(svc.rebalances(), 1u);
  EXPECT_FALSE(svc.ring().contains(1));
  EXPECT_NE(svc.ownerOf(victim), 1u);

  // Post-rebalance writes land on live shards and still commit.
  const std::size_t before = router.ops().size();
  svc.advanceBy(10);
  router.put(victim, 9'000);
  svc.runUntilQuiescent();
  router.poll();
  EXPECT_NE(router.ops()[before].shard, 1u);
  EXPECT_TRUE(router.ops()[before].committed);
  const ShardedKvReport report = checkShardedKvRun(router.ops());
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
}

TEST(ShardedKv, RebalanceMutationKeepsDeadShardWithoutTheKnob) {
  // Mutation: with rebalanceOnQuorumLoss off, the same crash schedule
  // re-homes nothing — keys keep routing to the dead shard. This is
  // what proves the rebalance path (not luck) moves the keys.
  ShardedSpec spec = smallSpec(4);
  spec.rebalanceOnQuorumLoss = false;
  ShardedService svc(spec, 5);
  std::uint64_t victim = 0;
  while (svc.ownerOf(victim) != 1) ++victim;
  svc.crashReplica(1, 1, 10);
  svc.crashReplica(1, 2, 20);
  EXPECT_FALSE(svc.hasQuorum(1));
  EXPECT_EQ(svc.rebalances(), 0u);
  EXPECT_TRUE(svc.ring().contains(1));
  EXPECT_EQ(svc.ownerOf(victim), 1u);

  // Scenario-level: without the second crash shard 1 keeps its quorum,
  // so the rebalance entry fails its requireRebalance clause.
  const Scenario* base = findScenario("sharded-rebalance-crash");
  ASSERT_NE(base, nullptr);
  Scenario mutant = *base;
  ASSERT_EQ(mutant.shardFaults.size(), 2u);
  mutant.shardFaults.pop_back();
  const ScenarioRunResult r = runScenario(mutant, 1);
  EXPECT_FALSE(r.pass);
  bool sawRebalanceFailure = false;
  for (const std::string& f : r.failures) {
    if (f.rfind("rebalance:", 0) == 0) sawRebalanceFailure = true;
  }
  EXPECT_TRUE(sawRebalanceFailure);
}

TEST(ShardedKv, ServiceRejectsStacksWithoutCommittedPrefixes) {
  for (AlgoStack stack : {AlgoStack::kEtob, AlgoStack::kTobViaConsensus}) {
    ShardedSpec spec = smallSpec(2);
    spec.stack = stack;
    EXPECT_THROW(ShardedService(spec, 1), InvariantError) << algoStackName(stack);
  }
}

// --- Stats aggregation ------------------------------------------------------

TEST(ShardedKv, StatsAggregateAcrossShards) {
  ShardedService svc(smallSpec(4), 21);
  ShardRouter router(svc);
  driveUniform(svc, router, 21, 64);

  const ShardedStats stats = svc.stats();
  ASSERT_EQ(stats.perShard.size(), 4u);
  std::size_t keys = 0;
  std::uint64_t applied = 0;
  std::uint64_t committedLen = 0;
  std::size_t populatedShards = 0;
  for (const ShardStats& row : stats.perShard) {
    keys += row.keys;
    applied += row.applied;
    committedLen += row.committedLen;
    if (row.applied > 0) ++populatedShards;
    EXPECT_EQ(row.correctReplicas, 3u);
    EXPECT_TRUE(row.inRing);
  }
  EXPECT_EQ(stats.keys, keys);
  EXPECT_EQ(stats.applied, applied);
  EXPECT_EQ(stats.committedLen, committedLen);
  EXPECT_EQ(stats.shardsInRing, 4u);

  // Every settled put was applied exactly once, on exactly one shard.
  EXPECT_EQ(stats.applied, 64u);
  // Keys spread across shards: any single shard's replica-group-local
  // kvStats (the facade counter) undercounts the service — the bug the
  // aggregated stats() exists to fix.
  EXPECT_GE(populatedShards, 2u);
  for (const ShardStats& row : stats.perShard) {
    EXPECT_LT(row.applied, stats.applied);
  }
}

// --- Router fold ------------------------------------------------------------

void expectSameOps(const std::vector<RouterOp>& a, const std::vector<RouterOp>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "op " << i;
    EXPECT_EQ(a[i].key, b[i].key) << "op " << i;
    EXPECT_EQ(a[i].value, b[i].value) << "op " << i;
    EXPECT_EQ(a[i].hasValue, b[i].hasValue) << "op " << i;
    EXPECT_EQ(a[i].time, b[i].time) << "op " << i;
    EXPECT_EQ(a[i].shard, b[i].shard) << "op " << i;
    EXPECT_EQ(a[i].committed, b[i].committed) << "op " << i;
    EXPECT_EQ(a[i].commitTime, b[i].commitTime) << "op " << i;
    EXPECT_EQ(a[i].version, b[i].version) << "op " << i;
  }
}

TEST(ShardedKv, OwnerOnlyGetMatchesAPollBeforeEveryGet) {
  // Router A polls before every get, folding all S shards as a read
  // once did; router B's get() folds only the owner shard. Both poll
  // once per tick after their gets, so every commit is still seen at
  // the same service tick and the two op logs agree field by field.
  ShardedService a(smallSpec(4), 31);
  ShardedService b(smallSpec(4), 31);
  ShardRouter ra(a);
  ShardRouter rb(b);
  ZipfianKeyGenerator putKeys(64, 0.99, 11);
  ZipfianKeyGenerator getKeys(64, 0.99, 12);
  // Gets that left a put committed on another shard pending in B.
  std::size_t heldBack = 0;
  for (std::uint64_t i = 0; i < 96; ++i) {
    a.advanceBy(10);
    b.advanceBy(10);
    const std::uint64_t key = putKeys.next();
    ra.put(key, i + 1);
    rb.put(key, i + 1);
    for (int g = 0; g < 4; ++g) {
      const std::uint64_t k = getKeys.next();
      ra.poll();
      EXPECT_EQ(ra.get(k), rb.get(k)) << "tick " << i << " key " << k;
      for (std::size_t op = 0; op < ra.ops().size(); ++op) {
        if (ra.ops()[op].committed && !rb.ops()[op].committed) {
          EXPECT_NE(rb.ops()[op].shard, b.ownerOf(k)) << "op " << op;
          ++heldBack;
        }
      }
    }
    ra.poll();
    rb.poll();
  }
  for (int t = 0; t < 200; ++t) {
    a.advanceBy(10);
    b.advanceBy(10);
    ra.poll();
    rb.poll();
  }
  for (std::uint64_t k = 0; k < 64; ++k) {
    ra.poll();
    EXPECT_EQ(ra.get(k), rb.get(k)) << "key " << k;
  }
  expectSameOps(ra.ops(), rb.ops());
  EXPECT_GT(heldBack, 0u);
  EXPECT_EQ(rb.pendingPuts(), 0u);
  const ShardedKvReport report = checkShardedKvRun(rb.ops());
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_GT(report.successfulGets, 0u);
}

TEST(ShardedKv, LaggingReadReplicaKeepsTheFold) {
  // Replica 0, the Omega leader, learns each commit a link delay before
  // its followers do. Crashing it while replica 1 lags moves the read
  // replica to a committed prefix that is a strict prefix of the fold.
  // That is lag, not a rewrite: the router keeps serving its fold.
  ShardedService svc(smallSpec(1), 9);
  ShardRouter router(svc);
  const auto committedLen = [&svc](ProcessId p) {
    return svc.shard(0).client(p).committedPrefix().size();
  };
  std::uint64_t puts = 0;
  while (committedLen(0) <= committedLen(1)) {
    ASSERT_LT(puts, 64u) << "replica 1 never lagged replica 0";
    router.put(puts, puts + 1);  // distinct keys: each is written once
    ++puts;
    for (int t = 0; t < 10 && committedLen(0) <= committedLen(1); ++t) {
      svc.advanceBy(1);
    }
  }
  // The newest command replica 0 committed and replica 1 has not.
  const CommitEtobAutomaton& leader = svc.orderingOf(0, 0);
  const AppMsg* command = leader.findMessage(leader.committedPrefix().back());
  ASSERT_NE(command, nullptr);
  ASSERT_EQ(command->body.size(), 3u);
  const std::uint64_t key = command->body[1];

  router.poll();
  ASSERT_EQ(router.get(key), key + 1);
  svc.crashReplica(0, 0, svc.now());
  ASSERT_EQ(svc.readReplicaOf(0), 1u);
  EXPECT_EQ(router.get(key), key + 1);
  const std::vector<RouterOp>& ops = router.ops();
  EXPECT_GE(ops.back().version, ops[ops.size() - 2].version);
  EXPECT_EQ(router.refolds(), 0u);
}

TEST(ShardedKv, RetriedWriteIsCreditedToTheAttemptThatCommitted) {
  // The first put(5, 7) is lost with replica 0, which crashes before the
  // put's input step; the retry goes to replica 1 and commits. Both
  // attempts carry the same (key, value), so only the MsgId tells which
  // one committed.
  ShardedService svc(smallSpec(1), 3);
  ShardRouter router(svc);
  svc.advanceTo(100);
  router.put(5, 7);
  svc.crashReplica(0, 0, svc.now());
  ASSERT_EQ(svc.readReplicaOf(0), 1u);
  router.put(5, 7);
  for (int t = 0; t < 400; ++t) {
    svc.advanceBy(10);
    router.poll();
  }
  EXPECT_FALSE(router.ops()[0].committed);
  EXPECT_TRUE(router.ops()[1].committed);
  EXPECT_EQ(router.pendingPuts(), 1u);
}

TEST(ShardedKv, EachShardLogHoldsExactlyItsRoutedPuts) {
  // Every put is a client broadcast in its shard's log(), so the
  // per-shard broadcast clauses of the sharded-* entries judge every
  // routed write; this pins that they are not vacuous.
  ShardedService svc(smallSpec(4), 13);
  ShardRouter router(svc);
  driveUniform(svc, router, 13, 64);
  ASSERT_EQ(router.pendingPuts(), 0u);
  std::size_t logged = 0;
  for (std::size_t s = 0; s < svc.shardCount(); ++s) {
    const Cluster& shard = svc.shard(s);
    std::set<std::pair<std::uint64_t, std::uint64_t>> routed;
    for (const RouterOp& op : router.ops()) {
      if (op.kind == RouterOp::Kind::kPut && op.shard == s) {
        routed.emplace(op.key, op.value);
      }
    }
    std::set<std::pair<std::uint64_t, std::uint64_t>> inLog;
    for (MsgId id : shard.log().ids()) {
      const std::vector<std::uint64_t>& body = shard.log().find(id)->body;
      ASSERT_EQ(body.size(), 3u);
      inLog.emplace(body[1], body[2]);
    }
    EXPECT_EQ(shard.log().ids().size(), routed.size()) << "shard " << s;
    EXPECT_EQ(inLog, routed) << "shard " << s;
    // The logged ids are exactly the ones the shard committed.
    const std::vector<MsgId>& committed =
        svc.shard(s).client(svc.readReplicaOf(s)).committedPrefix();
    const std::vector<MsgId>& ids = shard.log().ids();
    EXPECT_EQ(std::set<MsgId>(committed.begin(), committed.end()),
              std::set<MsgId>(ids.begin(), ids.end()))
        << "shard " << s;
    const BroadcastCheckReport rep =
        checkBroadcastRun(shard.sim().trace(), shard.log(), shard.pattern());
    EXPECT_TRUE(rep.coreOk() && rep.causalOrderOk) << "shard " << s;
    logged += ids.size();
  }
  EXPECT_EQ(logged, 64u);
}

// --- Router fold: the O(1) check against the always-compare fold ----------

// ShardRouter as it was before its fold trusted an unchanged replica:
// every fold reads the read replica's committed prefix through Client
// and compares the fold with all of it. The oracle of the
// differential tests below. It also counts the folds that found the
// read replica lagging and the refolds that rewrote a fold the same
// replica had been in sync with, so each test can show its case occurs.
class AlwaysCompareRouter {
 public:
  explicit AlwaysCompareRouter(ShardedService& service)
      : service_(&service), folds_(service.shardCount()) {}

  std::size_t put(std::uint64_t key, std::uint64_t value) {
    const std::size_t s = service_->ownerOf(key);
    Client c = service_->shard(s).client(service_->readReplicaOf(s));
    const MsgId id = c.put(key, value);
    RouterOp op;
    op.kind = RouterOp::Kind::kPut;
    op.key = key;
    op.value = value;
    op.time = service_->now() + 1;
    op.shard = s;
    ops_.push_back(op);
    folds_[s].pending.emplace(id, ops_.size() - 1);
    return ops_.size() - 1;
  }

  std::optional<std::uint64_t> get(std::uint64_t key) {
    const std::size_t s = service_->ownerOf(key);
    foldShard(s);
    const FoldState& f = folds_[s];
    RouterOp op;
    op.kind = RouterOp::Kind::kGet;
    op.key = key;
    op.time = service_->now();
    op.shard = s;
    const auto it = f.kv.find(key);
    if (it != f.kv.end()) {
      op.hasValue = true;
      op.value = it->second.first;
      op.version = it->second.second;
    }
    ops_.push_back(op);
    return op.hasValue ? std::optional<std::uint64_t>(op.value) : std::nullopt;
  }

  void poll() {
    for (std::size_t s = 0; s < folds_.size(); ++s) foldShard(s);
  }

  const std::vector<RouterOp>& ops() const { return ops_; }
  std::uint64_t refolds() const { return refolds_; }
  std::uint64_t laggingFolds() const { return laggingFolds_; }
  std::uint64_t inSyncRewrites() const { return inSyncRewrites_; }

 private:
  struct FoldState {
    std::vector<MsgId> folded;
    /// key → (value, version)
    std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> kv;
    std::unordered_map<MsgId, std::size_t> pending;
    ProcessId replica = kNoProcess;
    bool inSync = false;
  };

  void foldShard(std::size_t s) {
    if (service_->correctReplicasOf(s) == 0) return;
    FoldState& f = folds_[s];
    const ProcessId replica = service_->readReplicaOf(s);
    const bool wasInSync = f.inSync && replica == f.replica;
    f.replica = replica;
    Client c = service_->shard(s).client(replica);
    const std::vector<MsgId>& prefix = c.committedPrefix();
    std::size_t from = f.folded.size();
    const std::size_t common = std::min(prefix.size(), from);
    f.inSync = prefix.size() >= from;
    if (!std::equal(prefix.begin(), prefix.begin() + static_cast<std::ptrdiff_t>(common),
                    f.folded.begin())) {
      f.kv.clear();
      f.folded.clear();
      ++refolds_;
      if (wasInSync) ++inSyncRewrites_;
      f.inSync = true;
      from = 0;
    } else if (prefix.size() <= from) {
      if (prefix.size() < from) ++laggingFolds_;
      return;
    }
    for (std::size_t i = from; i < prefix.size(); ++i) {
      const AppMsg* command = service_->orderingOf(s, replica).findMessage(prefix[i]);
      ASSERT_NE(command, nullptr);
      const std::vector<std::uint64_t>& body = command->body;
      if (body.size() == 3 && body[0] == static_cast<std::uint64_t>(SmOp::kPut)) {
        auto& e = f.kv[body[1]];
        e.first = body[2];
        ++e.second;
      }
      const auto it = f.pending.find(prefix[i]);
      if (it != f.pending.end()) {
        ops_[it->second].committed = true;
        ops_[it->second].commitTime = service_->now();
        f.pending.erase(it);
      }
    }
    f.folded.insert(f.folded.end(),
                    prefix.begin() + static_cast<std::ptrdiff_t>(from), prefix.end());
  }

  ShardedService* service_;
  std::vector<FoldState> folds_;
  std::vector<RouterOp> ops_;
  std::uint64_t refolds_ = 0;
  std::uint64_t laggingFolds_ = 0;
  std::uint64_t inSyncRewrites_ = 0;
};

void expectSameRouting(const ShardRouter& router, const AlwaysCompareRouter& reference) {
  expectSameOps(router.ops(), reference.ops());
  EXPECT_EQ(router.refolds(), reference.refolds());
}

/// The kv-fault-s4-lossy shape of perfbench (perfbench/src/kv_workload.cpp):
/// four commit-eTOB shards over 10% i.i.d. loss under a stable Omega.
ShardedSpec kvFaultSpec() {
  ShardedSpec spec = smallSpec(4);
  spec.config.maxTime = 100'000'000;
  spec.config.keepDeliverySnapshots = false;
  spec.network = [](std::size_t, const SimConfig& c) -> std::shared_ptr<const NetworkModel> {
    return std::make_shared<IidLossModel>(
        std::make_shared<UniformDelayModel>(c.minDelay, c.maxDelay),
        IidLossModel::Config{1, 10, 0});
  };
  return spec;
}

/// perfbench's kv-fault-s4-lossy repetition at workload seed `seed`: every
/// 10 ticks four puts, each followed by a get, then a poll; shard 0's
/// leader (replica 0) crashes once half the puts are sent, and shard 1
/// loses its quorum at three quarters; a put unresolved 2000 ticks after
/// its last attempt is sent again; then a settle window of 20000 ticks.
template <typename Router>
void driveKvFault(ShardedService& svc, Router& router, std::uint64_t seed) {
  constexpr std::size_t kPuts = 2048;
  UniformKeyGenerator putGen(4096, splitmix64(seed ^ 0x7075744b657973ULL));
  UniformKeyGenerator getGen(4096, splitmix64(seed ^ 0x6765744b657973ULL));
  std::vector<std::uint64_t> putKeys(kPuts);
  for (std::uint64_t& key : putKeys) key = putGen.next();
  std::vector<std::vector<std::size_t>> attempts(kPuts);
  std::vector<Time> lastSent(kPuts, 0);
  std::vector<std::size_t> open;
  const auto put = [&](std::size_t logical) {
    const std::uint64_t value =
        (static_cast<std::uint64_t>(attempts[logical].size()) << 32) | (logical + 1);
    attempts[logical].push_back(router.put(putKeys[logical], value));
    lastSent[logical] = svc.now();
  };
  const auto sweep = [&](Time now) {
    std::size_t keep = 0;
    for (const std::size_t logical : open) {
      const bool resolved = std::any_of(
          attempts[logical].begin(), attempts[logical].end(),
          [&router](std::size_t op) { return router.ops()[op].committed; });
      if (resolved) continue;
      if (now - lastSent[logical] >= 2000) put(logical);
      open[keep++] = logical;
    }
    open.resize(keep);
  };
  Time t = 0;
  std::size_t next = 0;
  bool leaderCrashed = false;
  bool quorumLost = false;
  while (next < kPuts) {
    if (!leaderCrashed && next >= kPuts / 2) {
      svc.crashReplica(0, 0, svc.now());
      leaderCrashed = true;
    }
    if (!quorumLost && next >= 3 * kPuts / 4) {
      svc.crashReplica(1, 1, svc.now());
      svc.crashReplica(1, 2, svc.now());
      quorumLost = true;
    }
    t += 10;
    svc.advanceTo(t);
    for (std::size_t j = 0; j < svc.shardCount() && next < kPuts; ++j) {
      open.push_back(next);
      put(next++);
      router.get(getGen.next());
    }
    router.poll();
    sweep(t);
  }
  const Time settleEnd = t + 20000;
  while (!open.empty() && t < settleEnd) {
    t += 10;
    svc.advanceTo(t);
    router.poll();
    sweep(t);
  }
}

TEST(ShardedKv, FoldMatchesAlwaysCompareAcrossALaggingReadReplica) {
  // At these workload seeds the crash of shard 0's leader moves reads to
  // a follower whose committed prefix lags the fold: the shape in which
  // a fold once went backwards. The O(1) check must fall back to the
  // compare there and keep serving the fold.
  for (const std::uint64_t seed : {3ULL, 7ULL}) {
    ShardedService a(kvFaultSpec(), 1);
    ShardedService b(kvFaultSpec(), 1);
    ShardRouter router(a);
    AlwaysCompareRouter reference(b);
    driveKvFault(a, router, seed);
    driveKvFault(b, reference, seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expectSameRouting(router, reference);
    EXPECT_GT(reference.laggingFolds(), 0u);
    EXPECT_EQ(a.rebalances(), 1u);
    const ShardedKvReport report = checkShardedKvRun(router.ops());
    EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  }
}

/// Zipfian puts and gets on a 10-tick cadence with a poll per tick.
/// `fault(tick)` runs before each tick's ops; a settle window and a read
/// of every key follow.
template <typename Router, typename Fault>
void driveZipf(ShardedService& svc, Router& router, std::uint64_t ticks, Fault fault) {
  ZipfianKeyGenerator putKeys(64, 0.99, 21);
  ZipfianKeyGenerator getKeys(64, 0.99, 22);
  for (std::uint64_t i = 0; i < ticks; ++i) {
    fault(i);
    svc.advanceBy(10);
    router.put(putKeys.next(), i + 1);
    for (int g = 0; g < 3; ++g) router.get(getKeys.next());
    router.poll();
  }
  for (int t = 0; t < 200; ++t) {
    svc.advanceBy(10);
    router.poll();
  }
  for (std::uint64_t k = 0; k < 64; ++k) router.get(k);
}

TEST(ShardedKv, FoldMatchesAlwaysCompareThroughQuorumLossAndRebalance) {
  // Shard 1 loses its quorum and leaves the ring, so its keys re-home to
  // folds that never saw them; later shard 2's read replica crashes and
  // reads move to a follower.
  const auto faults = [](ShardedService& svc) {
    return [&svc](std::uint64_t tick) {
      if (tick == 32) {
        svc.crashReplica(1, 1, svc.now());
        svc.crashReplica(1, 2, svc.now());
      }
      if (tick == 64) svc.crashReplica(2, 0, svc.now());
    };
  };
  ShardedService a(smallSpec(4), 5);
  ShardedService b(smallSpec(4), 5);
  ShardRouter router(a);
  AlwaysCompareRouter reference(b);
  driveZipf(a, router, 128, faults(a));
  driveZipf(b, reference, 128, faults(b));
  expectSameRouting(router, reference);
  EXPECT_EQ(a.rebalances(), 1u);
  EXPECT_EQ(a.readReplicaOf(2), 1u);
  EXPECT_EQ(router.pendingPuts(), 0u);
  const ShardedKvReport report = checkShardedKvRun(router.ops());
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_GT(report.successfulGets, 0u);
}

/// Outside the §7 proviso: Omega rotates over one shard's three replicas
/// until t = 1000, and every replica takes writes, so two leaders can
/// commit conflicting prefixes.
ShardedSpec conflictingSpec() {
  ShardedSpec spec = smallSpec(1);
  spec.config.maxTime = 100'000;
  spec.tauOmega = 1000;
  spec.omegaMode = OmegaPreStabilization::kRotating;
  return spec;
}

bool isPrefixOf(const std::vector<MsgId>& a, const std::vector<MsgId>& b) {
  return a.size() <= b.size() && std::equal(a.begin(), a.end(), b.begin());
}

/// Replicas 0 and 1 of the conflicting shard when replica 0 crashes.
struct AtCrash {
  std::vector<MsgId> prefix0;
  std::vector<MsgId> prefix1;
  std::uint64_t conflicts0 = 0;
  std::uint64_t conflicts1 = 0;
};

/// 200 ticks of a router put, a write at each other replica (outside the
/// router's op log), a get and a poll. Replica 0 crashes after tick
/// `crashAfter`, if the run gets there, and the router reads every key
/// at once, so its first fold from replica 1 meets the state returned.
template <typename Router>
AtCrash driveConflicting(ShardedService& svc, Router& router, std::uint64_t keySeed,
                         std::uint64_t crashAfter) {
  UniformKeyGenerator keys(16, keySeed);
  AtCrash at;
  for (std::uint64_t i = 0; i < 200; ++i) {
    svc.advanceBy(10);
    router.put(keys.next(), i + 1);
    for (ProcessId p = 1; p < 3; ++p) {
      svc.shard(0).client(p).put(keys.next(), 1'000'000 * p + i);
    }
    router.get(keys.next());
    router.poll();
    if (i == crashAfter) {
      const CommitEtobAutomaton& r0 = svc.orderingOf(0, 0);
      const CommitEtobAutomaton& r1 = svc.orderingOf(0, 1);
      at = {r0.committedPrefix(), r1.committedPrefix(), r0.commitConflicts(),
            r1.commitConflicts()};
      svc.crashReplica(0, 0, svc.now());
      for (std::uint64_t k = 0; k < 16; ++k) router.get(k);
    }
  }
  return at;
}

TEST(ShardedKv, FoldMatchesAlwaysCompareWhenAStrengthJoinRewritesAnInSyncPrefix) {
  // A strength join replaces the committed prefix of the read replica the
  // fold was in sync with. Only its commitConflicts() tells the router;
  // this seed is pinned because the join happens.
  ShardedService a(conflictingSpec(), 2);
  ShardedService b(conflictingSpec(), 2);
  ShardRouter router(a);
  AlwaysCompareRouter reference(b);
  driveConflicting(a, router, 2, 200);
  driveConflicting(b, reference, 2, 200);
  EXPECT_GT(reference.inSyncRewrites(), 0u);
  EXPECT_GT(router.refolds(), 0u);
  expectSameRouting(router, reference);
}

TEST(ShardedKv, FoldMatchesAlwaysCompareWhenReadsMoveToADivergedReplica) {
  // At this seed and tick replica 1 holds a committed prefix that
  // conflicts with replica 0's, at an equal conflict count, when replica
  // 0 crashes and reads move to replica 1. Conflict counts of different
  // replicas say nothing about each other, so the switch alone must force
  // the compare.
  ShardedService a(conflictingSpec(), 29);
  ShardedService b(conflictingSpec(), 29);
  ShardRouter router(a);
  AlwaysCompareRouter reference(b);
  const AtCrash at = driveConflicting(a, router, 29, 73);
  driveConflicting(b, reference, 29, 73);
  EXPECT_FALSE(isPrefixOf(at.prefix0, at.prefix1));
  EXPECT_FALSE(isPrefixOf(at.prefix1, at.prefix0));
  EXPECT_EQ(at.conflicts0, at.conflicts1);
  EXPECT_EQ(a.readReplicaOf(0), 1u);
  expectSameRouting(router, reference);
}

TEST(ShardedKv, FoldMatchesAlwaysCompareWhenALaggingReplicaDiverges) {
  // Three ticks earlier in the same run, replica 1's committed prefix is
  // a strict prefix of replica 0's when replica 0 crashes, so reads move
  // to a replica that lags the fold. It then commits past the fold's
  // length in another order. The switch forces one compare, which finds
  // nothing wrong; only comparing on every fold while the replica lags
  // finds the rewrite.
  ShardedService a(conflictingSpec(), 29);
  ShardedService b(conflictingSpec(), 29);
  ShardRouter router(a);
  AlwaysCompareRouter reference(b);
  const AtCrash at = driveConflicting(a, router, 29, 70);
  driveConflicting(b, reference, 29, 70);
  EXPECT_LT(at.prefix1.size(), at.prefix0.size());
  EXPECT_TRUE(isPrefixOf(at.prefix1, at.prefix0));
  const std::vector<MsgId>& later = a.orderingOf(0, 1).committedPrefix();
  EXPECT_GT(later.size(), at.prefix0.size());
  EXPECT_FALSE(isPrefixOf(at.prefix0, later));
  EXPECT_GT(reference.laggingFolds(), 0u);
  expectSameRouting(router, reference);
}

// --- Checker mutations ------------------------------------------------------

RouterOp putOp(std::uint64_t key, std::uint64_t value, std::size_t shard,
               Time time, bool committed, Time commitTime) {
  RouterOp op;
  op.kind = RouterOp::Kind::kPut;
  op.key = key;
  op.value = value;
  op.time = time;
  op.shard = shard;
  op.committed = committed;
  op.commitTime = commitTime;
  return op;
}

RouterOp getOp(std::uint64_t key, std::size_t shard, Time time, bool hasValue,
               std::uint64_t value, std::uint64_t version) {
  RouterOp op;
  op.kind = RouterOp::Kind::kGet;
  op.key = key;
  op.value = value;
  op.hasValue = hasValue;
  op.time = time;
  op.shard = shard;
  op.version = version;
  return op;
}

TEST(ShardedKvChecker, CleanLogPasses) {
  const std::vector<RouterOp> ops = {
      putOp(7, 1, 0, 10, true, 50),
      getOp(7, 0, 60, true, 1, 1),
      putOp(7, 2, 0, 70, true, 120),
      getOp(7, 0, 130, true, 2, 2),
      getOp(8, 0, 130, false, 0, 0),  // never written: miss is fine
  };
  const ShardedKvReport r = checkShardedKvRun(ops);
  EXPECT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(r.puts, 2u);
  EXPECT_EQ(r.committedPuts, 2u);
  EXPECT_EQ(r.gets, 3u);
  EXPECT_EQ(r.successfulGets, 2u);
}

TEST(ShardedKvChecker, FlagsUncommittedRead) {
  // Value 9 was never written by a committed put on shard 0.
  const std::vector<RouterOp> ops = {
      putOp(7, 1, 0, 10, true, 50),
      getOp(7, 0, 60, true, 9, 1),
  };
  const ShardedKvReport r = checkShardedKvRun(ops);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.uncommittedReads, 1u);
}

TEST(ShardedKvChecker, FlagsCrossShardValueLeak) {
  // The value exists but was committed on ANOTHER shard: serving it
  // from shard 1 would mean shards share state.
  const std::vector<RouterOp> ops = {
      putOp(7, 1, 0, 10, true, 50),
      getOp(7, 1, 60, true, 1, 1),
  };
  const ShardedKvReport r = checkShardedKvRun(ops);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.uncommittedReads, 1u);
}

TEST(ShardedKvChecker, FlagsVersionRegression) {
  const std::vector<RouterOp> ops = {
      putOp(7, 1, 0, 10, true, 20),
      putOp(7, 2, 0, 30, true, 40),
      getOp(7, 0, 50, true, 2, 2),
      getOp(7, 0, 60, true, 1, 1),  // fold went backwards
  };
  const ShardedKvReport r = checkShardedKvRun(ops);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.monotonicityViolations, 1u);
}

TEST(ShardedKvChecker, FlagsStaleRead) {
  // A commit observed at t=50 must be visible to a strictly later read
  // on the same shard.
  const std::vector<RouterOp> ops = {
      putOp(7, 1, 0, 10, true, 50),
      getOp(7, 0, 80, false, 0, 0),
  };
  const ShardedKvReport r = checkShardedKvRun(ops);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.staleReads, 1u);
}

TEST(ShardedKvChecker, StaleReadScanStaysOnTheReadKey) {
  // Committed puts of the neighbouring keys 6 and 8 never make a get of
  // key 7, of key 5 (written on another shard only) or of the put-less
  // key 9 stale; among key 7's puts the first same-shard one committed
  // before the read, in value order, is the one reported.
  const std::vector<RouterOp> ops = {
      putOp(5, 3, 1, 5, true, 10),  // other shard
      putOp(6, 1, 0, 5, true, 10),
      putOp(8, 1, 0, 5, true, 10),
      putOp(7, 2, 1, 10, true, 20),  // other shard
      putOp(7, 9, 0, 10, true, 30),
      putOp(7, 4, 0, 10, true, 50),
      putOp(7, 5, 0, 10, false, 0),  // never seen committed
      getOp(7, 0, 80, false, 0, 0),
      getOp(5, 0, 80, false, 0, 0),
      getOp(9, 0, 80, false, 0, 0),
      getOp(6, 0, 80, true, 1, 1),
  };
  const ShardedKvReport r = checkShardedKvRun(ops);
  EXPECT_EQ(r.puts, 7u);
  EXPECT_EQ(r.committedPuts, 6u);
  EXPECT_EQ(r.gets, 4u);
  EXPECT_EQ(r.successfulGets, 1u);
  EXPECT_EQ(r.uncommittedReads, 0u);
  EXPECT_EQ(r.monotonicityViolations, 0u);
  EXPECT_EQ(r.staleReads, 1u);
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_EQ(r.errors[0],
            "get(key 7) at t=80 on shard 0 found nothing despite a commit "
            "observed at t=50");
}

TEST(ShardedKvChecker, SameTickCommitDoesNotForceVisibility) {
  const std::vector<RouterOp> ops = {
      putOp(7, 1, 0, 10, true, 50),
      getOp(7, 0, 50, false, 0, 0),  // same tick: resolution order unknown
  };
  EXPECT_TRUE(checkShardedKvRun(ops).ok());
}

TEST(ShardedKvChecker, RejectsAmbiguousDuplicateWrites) {
  const std::vector<RouterOp> ops = {
      putOp(7, 1, 0, 10, true, 50),
      putOp(7, 1, 0, 20, true, 60),
  };
  const ShardedKvReport r = checkShardedKvRun(ops);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.errors.empty());
}

}  // namespace
}  // namespace wfd
