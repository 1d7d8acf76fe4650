// Facade (src/api) tests: golden digest equivalence between the
// pre-facade instantiation path and the Cluster path over the WHOLE
// catalog, capability advertisement, incremental stepping, live fault
// injection, delivery observers, and the uniform Client surface.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "api/cluster.h"
#include "checkers/tob_checker.h"
#include "checkers/trace_digest.h"
#include "checkers/workload.h"
#include "common/ensure.h"
#include "ec/ec_driver.h"
#include "ec/omega_ec.h"
#include "etob/commit_etob.h"
#include "etob/etob_automaton.h"
#include "fd/detectors.h"
#include "rsm/gossip_lww.h"
#include "scenario/scenario.h"
#include "tob/tob_via_consensus.h"

namespace wfd {
namespace {

// --- Golden digest equivalence ----------------------------------------------
//
// The pre-facade instantiateScenario body, replicated verbatim (including
// its construction ORDER — the Rng draws depend on it): build config with
// the per-run seed, pattern, detector, network, simulator, one stack
// automaton per process, then schedule the workload. If the facade ever
// drifts from this sequence, every entry of the suite below fails.

std::unique_ptr<Automaton> legacyStackAutomaton(const Scenario& s,
                                                const SimConfig& cfg,
                                                ProcessId p) {
  switch (s.stack) {
    case AlgoStack::kEtob:
      return std::make_unique<EtobAutomaton>();
    case AlgoStack::kCommitEtob:
      return std::make_unique<CommitEtobAutomaton>();
    case AlgoStack::kTobViaConsensus:
      return std::make_unique<TobViaConsensusAutomaton>(p, cfg.processCount);
    case AlgoStack::kGossipLww:
      return std::make_unique<GossipLwwStore>();
    case AlgoStack::kOmegaEc:
      return std::make_unique<EcDriverAutomaton<OmegaEcAutomaton>>(
          OmegaEcAutomaton{}, binaryProposals(cfg.seed), s.ecInstances);
  }
  return nullptr;
}

std::uint64_t legacyPathDigest(const Scenario& s, std::uint64_t seed) {
  SimConfig cfg = s.config;
  cfg.seed = seed;
  FailurePattern fp = s.pattern ? s.pattern(cfg.processCount)
                                : FailurePattern::noFailures(cfg.processCount);
  std::shared_ptr<const FailureDetector> detector =
      s.detector ? s.detector(fp)
                 : std::make_shared<OmegaFd>(fp, s.tauOmega, s.omegaMode);
  std::shared_ptr<const NetworkModel> network =
      s.network ? s.network(cfg) : nullptr;
  Simulator sim(cfg, fp, std::move(detector), std::move(network));
  for (ProcessId p = 0; p < cfg.processCount; ++p) {
    sim.addProcess(p, legacyStackAutomaton(s, cfg, p));
  }
  if (s.stack != AlgoStack::kOmegaEc) {
    scheduleBroadcastWorkload(sim, s.workload);
  }
  sim.run();
  return traceDigest(sim.trace());
}

class FacadeEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FacadeEquivalenceTest, ClusterPathMatchesLegacyPathThreeSeeds) {
  const Scenario* s = findScenario(GetParam());
  ASSERT_NE(s, nullptr);
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Cluster cluster(clusterSpec(*s), seed);
    cluster.runToHorizon();
    EXPECT_EQ(traceDigest(cluster.sim().trace()), legacyPathDigest(*s, seed))
        << s->name << " seed " << seed;
  }
}

std::vector<std::string> allScenarioNames() {
  std::vector<std::string> names;
  for (const Scenario& s : scenarioCatalog()) {
    // Big-n entries get one facade run in test_large_cluster instead of
    // two full runs per seed times three seeds here (and under ASan).
    // Sharded entries lower to a ShardedSpec, not one Cluster.
    if (isLargeClusterScenario(s) || s.shards > 0) continue;
    names.push_back(s.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllCatalogEntries, FacadeEquivalenceTest,
                         ::testing::ValuesIn(allScenarioNames()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// Stepping must not perturb scheduling: a run split into arbitrary
// increments is the run executed in one go, bit for bit.
class FacadeSteppingTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FacadeSteppingTest, IncrementalSteppingMatchesBatchRun) {
  const Scenario* s = findScenario(GetParam());
  ASSERT_NE(s, nullptr);
  Cluster batch(clusterSpec(*s), 5);
  batch.runToHorizon();

  Cluster stepped(clusterSpec(*s), 5);
  stepped.advanceTo(1);                  // degenerate first step
  stepped.advanceBy(0);                  // no-op increment
  while (stepped.advanceBy(997)) {       // deliberately delay-unaligned
  }
  stepped.runToHorizon();                // flush the horizon boundary

  EXPECT_EQ(traceDigest(stepped.sim().trace()),
            traceDigest(batch.sim().trace()));
  EXPECT_EQ(stepped.now(), batch.now());
  EXPECT_EQ(stepped.sim().eventsProcessed(), batch.sim().eventsProcessed());
}

INSTANTIATE_TEST_SUITE_P(SampledEntries, FacadeSteppingTest,
                         ::testing::Values("stable-leader", "dup-reorder-storm",
                                           "skewed-chaos-combo",
                                           "ec-omega-split-brain",
                                           "gossip-lww-convergence"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// --- Capabilities ------------------------------------------------------------

TEST(CapabilitiesTest, PerStackFlagsMatchTheMatrix) {
  for (AlgoStack stack : kAllAlgoStacks) {
    const Capabilities caps = stackCapabilities(stack);
    SCOPED_TRACE(algoStackName(stack));
    EXPECT_EQ(caps.submits, stack != AlgoStack::kOmegaEc);
    EXPECT_EQ(caps.deliverySequence, stack == AlgoStack::kEtob ||
                                         stack == AlgoStack::kCommitEtob ||
                                         stack == AlgoStack::kTobViaConsensus);
    EXPECT_EQ(caps.committedPrefix, stack == AlgoStack::kCommitEtob);
    EXPECT_EQ(caps.kv, stack == AlgoStack::kGossipLww);
    EXPECT_EQ(caps.selfProposing, stack == AlgoStack::kOmegaEc);
  }
}

ClusterSpec tinySpec(AlgoStack stack) {
  ClusterSpec spec;
  spec.stack = stack;
  spec.config.processCount = 3;
  spec.config.maxTime = 8000;
  spec.tauOmega = 0;
  spec.omegaMode = OmegaPreStabilization::kStable;
  spec.workload.perProcess = 3;
  if (stack == AlgoStack::kGossipLww) spec.workload.lwwPutBodies = true;
  if (stack == AlgoStack::kOmegaEc) {
    spec.workload.perProcess = 0;
    spec.ecInstances = 5;
  }
  return spec;
}

TEST(CapabilitiesTest, CommittedPrefixEmptyExactlyOnNonCommitStacks) {
  for (AlgoStack stack : kAllAlgoStacks) {
    SCOPED_TRACE(algoStackName(stack));
    Cluster cluster(tinySpec(stack), 1);
    cluster.runToHorizon();
    bool anyCommitted = false;
    for (ProcessId p = 0; p < cluster.processCount(); ++p) {
      anyCommitted |= !cluster.client(p).committedPrefix().empty();
    }
    // Non-empty exactly where the capability is advertised: the commit
    // stack under a stable leader and correct majority MUST commit.
    EXPECT_EQ(anyCommitted, cluster.capabilities().committedPrefix);
  }
}

TEST(CapabilitiesTest, SubmitRejectedWithoutTheCapability) {
  Cluster cluster(tinySpec(AlgoStack::kOmegaEc), 1);
  EXPECT_FALSE(cluster.capabilities().submits);
  EXPECT_THROW(cluster.client(0).submit({1}), InvariantError);
  EXPECT_THROW(cluster.client(0).put(1, 2), InvariantError);
}

TEST(CapabilitiesTest, KvRejectedWithoutTheCapability) {
  Cluster cluster(tinySpec(AlgoStack::kEtob), 1);
  EXPECT_TRUE(cluster.capabilities().submits);
  EXPECT_FALSE(cluster.capabilities().kv);
  EXPECT_THROW(cluster.client(0).put(1, 2), InvariantError);
  // Reads degrade gracefully (uniform surface): no value, zero stats.
  EXPECT_EQ(cluster.client(0).kvGet(1), std::nullopt);
  EXPECT_EQ(cluster.client(0).kvStats().keys, 0u);
}

TEST(CapabilitiesTest, KvReplicaTurnsOnKvOverBroadcastStacks) {
  ClusterSpec spec = tinySpec(AlgoStack::kEtob);
  spec.kvReplica = true;
  spec.workload.perProcess = 0;
  Cluster cluster(spec, 1);
  EXPECT_TRUE(cluster.capabilities().kv);
  EXPECT_TRUE(cluster.capabilities().submits);

  ClusterSpec bad = tinySpec(AlgoStack::kGossipLww);
  bad.kvReplica = true;
  EXPECT_THROW(Cluster(bad, 1), InvariantError);
}

TEST(CapabilitiesTest, DecisionsFlowOnTheSelfProposingStack) {
  Cluster cluster(tinySpec(AlgoStack::kOmegaEc), 1);
  cluster.runToHorizon();
  EXPECT_TRUE(cluster.capabilities().selfProposing);
  for (ProcessId p = 0; p < cluster.processCount(); ++p) {
    EXPECT_EQ(cluster.client(p).decisions().size(), 5u) << p;
    EXPECT_TRUE(cluster.client(p).delivered().empty()) << p;
  }
}

// --- Client surface ----------------------------------------------------------

TEST(ClientTest, SubmissionsAreDeliveredAndLogged) {
  ClusterSpec spec = tinySpec(AlgoStack::kEtob);
  spec.workload.perProcess = 0;
  Cluster cluster(spec, 7);
  Client c1 = cluster.client(1);
  const MsgId a = c1.submitAt(100, {41});
  const MsgId b = c1.submitAt(150, {42}, {a});
  EXPECT_EQ(a, makeMsgId(1, 0));
  EXPECT_EQ(b, makeMsgId(1, 1));
  EXPECT_TRUE(cluster.log().contains(a));
  EXPECT_TRUE(cluster.log().contains(b));

  cluster.runUntilQuiescent();
  for (ProcessId p = 0; p < cluster.processCount(); ++p) {
    EXPECT_EQ(cluster.client(p).delivered(), (std::vector<MsgId>{a, b})) << p;
  }
  const BroadcastCheckReport rep =
      checkBroadcastRun(cluster.sim().trace(), cluster.log(), cluster.pattern());
  EXPECT_TRUE(rep.coreOk());
  EXPECT_TRUE(rep.causalOrderOk);
}

TEST(ClientTest, ClientIdsContinueAboveAScheduledWorkload) {
  ClusterSpec spec = tinySpec(AlgoStack::kEtob);  // perProcess = 3
  Cluster cluster(spec, 7);
  EXPECT_EQ(cluster.client(2).submitAt(500, {9}), makeMsgId(2, 3));
}

TEST(ClientTest, KvReplicaPutGetRoundTrip) {
  ClusterSpec spec = tinySpec(AlgoStack::kEtob);
  spec.kvReplica = true;
  spec.workload.perProcess = 0;
  Cluster cluster(spec, 3);
  Client c0 = cluster.client(0);
  EXPECT_EQ(c0.putAt(100, 5, 55), kNoMsgId);  // replica allocates internally
  EXPECT_EQ(c0.putAt(200, 6, 66), kNoMsgId);
  cluster.runUntilQuiescent();
  for (ProcessId p = 0; p < cluster.processCount(); ++p) {
    Client c = cluster.client(p);
    EXPECT_EQ(c.kvGet(5), std::make_optional<std::uint64_t>(55)) << p;
    EXPECT_EQ(c.kvGet(6), std::make_optional<std::uint64_t>(66)) << p;
    EXPECT_EQ(c.kvGet(7), std::nullopt) << p;
    EXPECT_EQ(c.kvStats().keys, 2u) << p;
    EXPECT_EQ(c.kvStats().applied, 2u) << p;
  }
}

TEST(ClientTest, GossipPutGetRoundTrip) {
  ClusterSpec spec = tinySpec(AlgoStack::kGossipLww);
  spec.workload.perProcess = 0;
  spec.detector = [](const FailurePattern& fp) {
    return std::make_shared<PerfectFd>(fp);
  };
  Cluster cluster(spec, 3);
  const MsgId id = cluster.client(2).putAt(100, 9, 90);
  EXPECT_NE(id, kNoMsgId);
  cluster.runUntilQuiescent();
  for (ProcessId p = 0; p < cluster.processCount(); ++p) {
    EXPECT_EQ(cluster.client(p).kvGet(9), std::make_optional<std::uint64_t>(90))
        << p;
  }
}

TEST(ClientTest, DeliveryObserversSeeEveryChangeInOrder) {
  ClusterSpec spec = tinySpec(AlgoStack::kEtob);
  Cluster cluster(spec, 2);
  std::vector<std::vector<MsgId>> seen;
  Time lastAt = 0;
  cluster.client(1).onDeliver([&](Time t, const std::vector<MsgId>& seq) {
    EXPECT_GE(t, lastAt);
    lastAt = t;
    seen.push_back(seq);
  });
  std::size_t clusterWide = 0;
  cluster.observeDeliveries(
      [&](ProcessId, Time, const std::vector<MsgId>&) { ++clusterWide; });
  cluster.runToHorizon();
  ASSERT_FALSE(seen.empty());
  // The final observed value is the final delivery sequence, and the
  // observer stream matches the recorded snapshot history exactly.
  EXPECT_EQ(seen.back(), cluster.client(1).delivered());
  const auto& snaps = cluster.sim().trace().deliverySnapshots(1);
  ASSERT_EQ(seen.size(), snaps.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], snaps[i].seq) << i;
  }
  EXPECT_GT(clusterWide, seen.size());  // other processes deliver too
}

TEST(ClientTest, ObserversDoNotPerturbTheRun) {
  const Scenario* s = findScenario("split-brain-heal");
  ASSERT_NE(s, nullptr);
  Cluster plain(clusterSpec(*s), 4);
  plain.runToHorizon();
  Cluster observed(clusterSpec(*s), 4);
  std::size_t events = 0;
  observed.observeDeliveries(
      [&](ProcessId, Time, const std::vector<MsgId>&) { ++events; });
  observed.observeOutputs([&](ProcessId, Time, const Payload&) { ++events; });
  observed.runToHorizon();
  EXPECT_GT(events, 0u);
  EXPECT_EQ(traceDigest(observed.sim().trace()),
            traceDigest(plain.sim().trace()));
}

// --- Stepping contract --------------------------------------------------------

TEST(SteppingTest, AdvanceToIsMonotone) {
  Cluster cluster(tinySpec(AlgoStack::kEtob), 1);
  cluster.advanceTo(500);
  EXPECT_THROW(cluster.advanceTo(10), InvariantError);
}

TEST(SteppingTest, AdvanceToStopsAtTheBoundary) {
  Cluster cluster(tinySpec(AlgoStack::kEtob), 1);
  EXPECT_TRUE(cluster.advanceTo(1000));
  EXPECT_LE(cluster.now(), 1000u);
  ASSERT_TRUE(cluster.sim().nextEventTime().has_value());
  EXPECT_GT(*cluster.sim().nextEventTime(), 1000u);
}

TEST(SteppingTest, RunUntilQuiescentDeliversTheWorkloadEarly) {
  Cluster cluster(tinySpec(AlgoStack::kEtob), 1);
  const Time at = cluster.runUntilQuiescent();
  // Long before the 8000-tick horizon, and with the whole 3x3 workload
  // stably delivered everywhere.
  EXPECT_LT(at, cluster.sim().config().maxTime);
  EXPECT_EQ(cluster.sim().pendingInputs(), 0u);
  EXPECT_TRUE(broadcastConverged(cluster.sim(), cluster.log()));
  // Quiescence is a fixed point here: going again moves one window at most.
  const Time again = cluster.runUntilQuiescent();
  EXPECT_GE(again, at);
}

// --- Live fault injection -----------------------------------------------------

TEST(FaultInjectionTest, MidRunCrashStopsTheProcessAndKeepsTheSpec) {
  ClusterSpec spec = tinySpec(AlgoStack::kEtob);
  spec.config.processCount = 4;
  spec.config.maxTime = 20000;
  spec.tauOmega = 0;
  spec.workload.perProcess = 4;
  Cluster cluster(spec, 9);

  cluster.advanceTo(800);
  EXPECT_TRUE(cluster.pattern().correct(3));
  cluster.crashAt(3, 900);
  EXPECT_TRUE(cluster.pattern().faulty(3));
  EXPECT_EQ(cluster.pattern().crashTime(3), 900u);
  cluster.runToHorizon();

  // The crashed process took no step at or after 900...
  const Trace& trace = cluster.sim().trace();
  for (const DeliverySnapshot& snap : trace.deliverySnapshots(3)) {
    EXPECT_LT(snap.time, 900u);
  }
  // ...and the survivors still satisfy the whole eTOB spec under the
  // injected pattern, converging among themselves.
  const BroadcastCheckReport rep =
      checkBroadcastRun(trace, cluster.log(), cluster.pattern());
  EXPECT_TRUE(rep.coreOk());
  EXPECT_TRUE(rep.causalOrderOk);
  EXPECT_TRUE(broadcastConverged(cluster.sim(), cluster.log()));
}

TEST(FaultInjectionTest, DetectorReStabilizesOnACorrectLeader) {
  ClusterSpec spec = tinySpec(AlgoStack::kEtob);
  spec.config.maxTime = 20000;
  Cluster cluster(spec, 9);
  cluster.advanceTo(1000);
  // p0 was the stable leader; crashing it forces a failover.
  cluster.crashAt(0, 1100);
  cluster.runToHorizon();
  const FdValue fd = cluster.sim().detector().valueAt(1, cluster.now());
  EXPECT_EQ(fd.leader, 1u);  // lowest remaining correct process
  const BroadcastCheckReport rep =
      checkBroadcastRun(cluster.sim().trace(), cluster.log(), cluster.pattern());
  EXPECT_TRUE(rep.coreOk());
  EXPECT_TRUE(broadcastConverged(cluster.sim(), cluster.log()));
}

TEST(FaultInjectionTest, CrashRejectionsAreEnforced) {
  Cluster cluster(tinySpec(AlgoStack::kEtob), 1);
  cluster.advanceTo(1000);
  EXPECT_THROW(cluster.crashAt(0, 500), InvariantError);  // the past
  cluster.crashAt(1, 2000);
  cluster.crashAt(2, 2000);
  // All three gone would leave no correct process.
  EXPECT_THROW(cluster.crashAt(0, 3000), InvariantError);
  // A rejected injection leaves NO trace: p0 is still correct and the
  // cluster still runs to a converged state on the surviving process.
  EXPECT_TRUE(cluster.pattern().correct(0));
  cluster.runToHorizon();
  EXPECT_TRUE(broadcastConverged(cluster.sim(), cluster.log()));
}

TEST(ClientTest, WorkloadAfterClientSubmissionIsRejected) {
  ClusterSpec spec = tinySpec(AlgoStack::kEtob);
  spec.workload.perProcess = 0;
  Cluster cluster(spec, 1);
  cluster.client(0).submitAt(100, {1});  // issues makeMsgId(0, 0)
  BroadcastWorkload w;
  w.perProcess = 2;  // would re-issue makeMsgId(0, 0)
  EXPECT_THROW(cluster.scheduleWorkload(w), InvariantError);
  BroadcastWorkload empty;
  empty.perProcess = 0;  // schedules nothing — still fine
  cluster.scheduleWorkload(empty);
}

TEST(ClientTest, SecondWorkloadIsRejected) {
  // Workload ids are always 0..perProcess-1 per origin, so a second
  // workload would re-issue the first one's ids — whether the first came
  // from the spec or from an explicit scheduleWorkload call.
  Cluster viaSpec(tinySpec(AlgoStack::kEtob), 1);  // spec schedules 3/process
  BroadcastWorkload w;
  w.perProcess = 2;
  EXPECT_THROW(viaSpec.scheduleWorkload(w), InvariantError);

  ClusterSpec spec = tinySpec(AlgoStack::kEtob);
  spec.workload.perProcess = 0;
  Cluster viaCall(spec, 1);
  viaCall.scheduleWorkload(w);  // first non-empty workload: fine
  EXPECT_THROW(viaCall.scheduleWorkload(w), InvariantError);
}

TEST(ClientTest, PastTimeWorkloadIsRejected) {
  ClusterSpec spec = tinySpec(AlgoStack::kEtob);
  spec.workload.perProcess = 0;
  Cluster cluster(spec, 1);
  cluster.advanceTo(5000);
  BroadcastWorkload w;  // start defaults to 50 — now in the past
  w.perProcess = 2;
  EXPECT_THROW(cluster.scheduleWorkload(w), InvariantError);
}

TEST(ClusterSpecTest, KvReplicaRejectsABroadcastWorkload) {
  // Replicas consume ClientCommands; a scheduled BroadcastInput workload
  // would be silently dropped while still recorded in log().
  ClusterSpec spec = tinySpec(AlgoStack::kEtob);  // perProcess = 3
  spec.kvReplica = true;
  EXPECT_THROW(Cluster(spec, 1), InvariantError);
}

TEST(ClusterSpecTest, CustomAutomatonRejectsANonEmptyWorkload) {
  ClusterSpec spec = tinySpec(AlgoStack::kEtob);  // perProcess = 3
  spec.automaton = [](const SimConfig&, ProcessId) {
    return std::make_unique<EtobAutomaton>();
  };
  EXPECT_THROW(Cluster(spec, 1), InvariantError);
  spec.workload.perProcess = 0;
  Cluster ok(spec, 1);  // explicit: custom automata drive their own inputs
  EXPECT_FALSE(ok.capabilities().submits);
}

TEST(FaultInjectionTest, LivePartitionDefersButNeverDrops) {
  ClusterSpec spec = tinySpec(AlgoStack::kEtob);
  spec.config.maxTime = 20000;
  spec.workload.perProcess = 0;
  Cluster cluster(spec, 5);
  cluster.advanceTo(300);
  cluster.isolate(2, 400, 2400);
  Client c2 = cluster.client(2);
  const MsgId id = c2.submitAt(500, {7});  // broadcast INTO the partition
  std::optional<Time> firstSeenAt0;
  cluster.client(0).onDeliver([&](Time t, const std::vector<MsgId>& d) {
    if (!firstSeenAt0 && std::find(d.begin(), d.end(), id) != d.end()) {
      firstSeenAt0 = t;
    }
  });
  cluster.runUntilQuiescent();
  for (ProcessId p = 0; p < cluster.processCount(); ++p) {
    const auto& d = cluster.client(p).delivered();
    EXPECT_TRUE(std::find(d.begin(), d.end(), id) != d.end()) << p;
  }
  // Nobody else could have seen it before the window healed.
  ASSERT_TRUE(firstSeenAt0.has_value());
  EXPECT_GE(*firstSeenAt0, 2400u);
}

// --- Scenario adapter ---------------------------------------------------------

TEST(ScenarioAdapterTest, RunScenarioEqualsManualClusterDrive) {
  const Scenario* s = findScenario("minority-crash");
  ASSERT_NE(s, nullptr);
  const ScenarioRunResult viaAdapter = runScenario(*s, 6);
  Cluster cluster(clusterSpec(*s), 6);
  cluster.runToHorizon();
  const ScenarioRunResult viaFacade = evaluateScenarioRun(*s, 6, cluster);
  EXPECT_EQ(viaAdapter.digest, viaFacade.digest);
  EXPECT_EQ(viaAdapter.pass, viaFacade.pass);
  EXPECT_EQ(viaAdapter.failures, viaFacade.failures);
  EXPECT_EQ(viaAdapter.eventsProcessed, viaFacade.eventsProcessed);
}

TEST(ScenarioAdapterTest, InstanceExposesItsCluster) {
  const Scenario* s = findScenario("stable-leader");
  ASSERT_NE(s, nullptr);
  ScenarioInstance inst = instantiateScenario(*s, 2);
  ASSERT_NE(inst.cluster, nullptr);
  EXPECT_EQ(inst.sim, &inst.cluster->sim());
  EXPECT_EQ(inst.log.size(), inst.cluster->log().size());
  inst.sim->run();  // legacy call shape still works
  EXPECT_GT(inst.sim->eventsProcessed(), 0u);
}

}  // namespace
}  // namespace wfd
