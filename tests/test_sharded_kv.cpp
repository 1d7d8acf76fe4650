// Integration, regression and mutation tests for the sharded KV
// service: pinned digests for every sharded-* catalog entry, the
// cross-shard-independence byte-identity property, the crash-rebalance
// path (and the mutation proving it matters), service-level stats
// aggregation, and adversarial op logs against the sharded_kv checker.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "checkers/trace_digest.h"
#include "common/ensure.h"
#include "common/hash.h"
#include "scenario/scenario.h"
#include "shard/shard_router.h"
#include "shard/sharded_kv_checker.h"
#include "shard/sharded_service.h"
#include "shard/zipf.h"

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
