// Integration tests: replicated state machines over the two ordering
// services — the paper's "eventually consistent replicated service"
// (ETOB, eventually-linearizable universal construction, §6) vs the
// strongly consistent replica (TOB) — plus the gossip/LWW strawman.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "etob/etob_automaton.h"
#include "fd/detectors.h"
#include "helpers.h"
#include "rsm/gossip_lww.h"
#include "rsm/replica.h"
#include "rsm/state_machines.h"
#include "tob/tob_via_consensus.h"

namespace wfd {
namespace {

// --- State machines ----------------------------------------------------------

TEST(StateMachineTest, KvStorePutGetDel) {
  KvStore kv;
  kv.apply(makePut(1, 10));
  kv.apply(makePut(2, 20));
  EXPECT_EQ(kv.get(1), 10u);
  kv.apply(makePut(1, 11));
  EXPECT_EQ(kv.get(1), 11u);
  kv.apply(makeDel(1));
  EXPECT_FALSE(kv.get(1).has_value());
  EXPECT_EQ(kv.size(), 1u);
  EXPECT_EQ(kv.appliedCount(), 4u);
}

TEST(StateMachineTest, KvStoreEqualityIsContentBased) {
  KvStore a, b;
  a.apply(makePut(1, 10));
  b.apply(makePut(1, 9));
  b.apply(makePut(1, 10));
  EXPECT_TRUE(a == b);
}

TEST(StateMachineTest, CounterAccumulates) {
  CounterSm c;
  c.apply(makeAdd(5));
  c.apply(makeAdd(7));
  EXPECT_EQ(c.value(), 12);
}

TEST(StateMachineTest, JournalOrderSensitive) {
  JournalSm a, b;
  a.apply(makeAppend(1));
  a.apply(makeAppend(2));
  b.apply(makeAppend(2));
  b.apply(makeAppend(1));
  EXPECT_FALSE(a == b);
}

TEST(StateMachineTest, MalformedCommandThrows) {
  KvStore kv;
  EXPECT_THROW(kv.apply(Command{}), InvariantError);
  EXPECT_THROW(kv.apply(Command{static_cast<std::uint64_t>(SmOp::kPut), 1}),
               InvariantError);
}

// --- Replicas ----------------------------------------------------------------

using EtobReplica = ReplicaAutomaton<EtobAutomaton, KvStore>;
using TobReplica = ReplicaAutomaton<TobViaConsensusAutomaton, KvStore>;
using JournalReplica = ReplicaAutomaton<EtobAutomaton, JournalSm>;

SimConfig rsmConfig(std::size_t n, std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.processCount = n;
  cfg.seed = seed;
  cfg.maxTime = 30000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 15;
  cfg.maxDelay = 30;
  return cfg;
}

/// A command submitted at `origin` as an ordinary broadcast whose id the
/// caller allocates (the Cluster facade does this for Client::put).
Payload command(ProcessId origin, std::uint32_t seq, Command body) {
  AppMsg m;
  m.id = makeMsgId(origin, seq);
  m.origin = origin;
  m.body = std::move(body);
  return Payload::of(BroadcastInput{std::move(m)});
}

template <typename Replica>
bool machinesConverged(const Simulator& sim, std::size_t expectApplied) {
  const auto correct = sim.failurePattern().correctSet();
  const auto& first =
      static_cast<const Replica&>(sim.automaton(correct.front())).machine();
  if (first.appliedCount() < expectApplied) return false;
  for (ProcessId p : correct) {
    const auto& replica = static_cast<const Replica&>(sim.automaton(p));
    if (!(replica.machine() == first)) return false;
  }
  return true;
}

TEST(ReplicaTest, EtobKvReplicasConverge) {
  auto cfg = rsmConfig(3);
  auto fp = FailurePattern::noFailures(3);
  auto omega = std::make_shared<OmegaFd>(fp, 800,
                                         OmegaPreStabilization::kSplitBrain);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < 3; ++p) {
    sim.addProcess(p, std::make_unique<EtobReplica>(EtobAutomaton{}));
  }
  for (int i = 0; i < 5; ++i) {
    for (ProcessId p = 0; p < 3; ++p) {
      sim.scheduleInput(p, 100 + 50 * i + 7 * p,
                        command(p, i, makePut(p * 10 + i, i)));
    }
  }
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) {
    return s.now() > 1500 && machinesConverged<EtobReplica>(s, 15);
  }));
  const auto& kv = static_cast<const EtobReplica&>(sim.automaton(0)).machine();
  EXPECT_EQ(kv.get(0), 0u);
  EXPECT_EQ(kv.get(24), 4u);
}

TEST(ReplicaTest, StrongReplicaNeverRebuilds) {
  auto cfg = rsmConfig(3);
  auto fp = FailurePattern::noFailures(3);
  auto omega = std::make_shared<OmegaFd>(fp, 0, OmegaPreStabilization::kStable);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < 3; ++p) {
    sim.addProcess(p, std::make_unique<TobReplica>(TobViaConsensusAutomaton(p, 3)));
  }
  for (int i = 0; i < 4; ++i) {
    sim.scheduleInput(i % 3, 100 + 60 * i, command(i % 3, i / 3, makePut(i, i)));
  }
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) {
    return machinesConverged<TobReplica>(s, 4);
  }));
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(static_cast<const TobReplica&>(sim.automaton(p)).rebuilds(), 0u)
        << "strong TOB never revokes, so no rebuilds at p" << p;
  }
}

TEST(ReplicaTest, EtobReplicaRebuildsOnlyBeforeTau) {
  auto cfg = rsmConfig(3);
  auto fp = FailurePattern::noFailures(3);
  const Time tauOmega = 1200;
  auto omega = std::make_shared<OmegaFd>(fp, tauOmega,
                                         OmegaPreStabilization::kSplitBrain);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < 3; ++p) {
    sim.addProcess(p, std::make_unique<JournalReplica>(EtobAutomaton{}));
  }
  for (int i = 0; i < 6; ++i) {
    for (ProcessId p = 0; p < 3; ++p) {
      sim.scheduleInput(p, 80 + 45 * i + 5 * p,
                        command(p, i, makeAppend(i * 10 + p)));
    }
  }
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) {
    return s.now() > tauOmega + 1000 && machinesConverged<JournalReplica>(s, 18);
  }));
  // Divergence (rebuilds) may happen before τ but the journals converge —
  // identical entries in identical order at every replica.
  const auto& j0 = static_cast<const JournalReplica&>(sim.automaton(0)).machine();
  EXPECT_EQ(j0.entries().size(), 18u);
  for (ProcessId p = 0; p < 3; ++p) {
    // All delivery rewrites happened before stabilization + slack.
    EXPECT_LE(sim.trace().lastPrefixViolation(p),
              tauOmega + cfg.timeoutPeriod + cfg.maxDelay);
  }
}

TEST(ReplicaTest, EtobReplicaWorksWithMinorityCorrect) {
  auto cfg = rsmConfig(5);
  auto fp = Environments::staggeredCrashes(5, 3, 700, 60);
  auto omega = std::make_shared<OmegaFd>(fp, 1200,
                                         OmegaPreStabilization::kSplitBrain);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < 5; ++p) {
    sim.addProcess(p, std::make_unique<EtobReplica>(EtobAutomaton{}));
  }
  // Commands from the two eventually-correct processes, after the crashes.
  for (int i = 0; i < 4; ++i) {
    sim.scheduleInput(0, 1300 + 50 * i, command(0, i, makePut(i, i)));
    sim.scheduleInput(1, 1320 + 50 * i, command(1, i, makePut(100 + i, i)));
  }
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) {
    return s.now() > 3000 && machinesConverged<EtobReplica>(s, 8);
  })) << "eventually consistent replication must progress without a majority";
}

// --- Gossip LWW strawman -----------------------------------------------------

Payload gossipMsg(GossipLwwStore::Table table) {
  return Payload::of(GossipStateMsg{
      std::make_shared<const GossipLwwStore::Table>(std::move(table))});
}

/// Puts key := value at `store` as a local input from process `origin`.
void gossipPut(GossipLwwStore& store, ProcessId origin, std::uint64_t seq,
               std::uint64_t key, std::uint64_t value) {
  StepContext ctx;
  ctx.self = origin;
  ctx.processCount = 2;
  Effects fx;
  AppMsg m;
  m.id = makeMsgId(origin, seq);
  m.origin = origin;
  m.body = makePut(key, value);
  store.onInput(ctx, Payload::of(BroadcastInput{std::move(m)}), fx);
}

/// The table one λ-step of `store` broadcasts.
std::shared_ptr<const GossipLwwStore::Table> gossipTableOf(GossipLwwStore& store) {
  StepContext ctx;
  ctx.processCount = 2;
  Effects fx;
  store.onTimeout(ctx, fx);
  EXPECT_EQ(fx.sends().size(), 1u);
  const auto* msg = fx.sends().at(0).payload.as<GossipStateMsg>();
  EXPECT_NE(msg, nullptr);
  EXPECT_EQ(fx.sends().at(0).weight, 1u);
  return msg == nullptr ? nullptr : msg->table;
}

TEST(GossipLwwTest, ConvergesToSameTable) {
  auto cfg = rsmConfig(3);
  auto fp = FailurePattern::noFailures(3);
  Simulator sim(cfg, fp, std::make_shared<PerfectFd>(fp));
  for (ProcessId p = 0; p < 3; ++p) {
    sim.addProcess(p, std::make_unique<GossipLwwStore>());
  }
  for (int i = 0; i < 4; ++i) {
    for (ProcessId p = 0; p < 3; ++p) {
      AppMsg m;
      m.id = makeMsgId(p, i);
      m.origin = p;
      m.body = makePut(i, p * 100 + i);
      sim.scheduleInput(p, 100 + 40 * i + 9 * p,
                        Payload::of(BroadcastInput{std::move(m)}));
    }
  }
  ASSERT_TRUE(sim.runUntil([](const Simulator& s) {
    if (s.now() < 1500) return false;
    const auto& a = static_cast<const GossipLwwStore&>(s.automaton(0));
    const auto& b = static_cast<const GossipLwwStore&>(s.automaton(1));
    const auto& c = static_cast<const GossipLwwStore&>(s.automaton(2));
    return a.sameTable(b) && a.sameTable(c) && a.table().size() == 4;
  }));
}

TEST(GossipLwwTest, LwwPicksHighestTimestamp) {
  GossipLwwStore store;
  StepContext ctx;
  ctx.self = 0;
  ctx.processCount = 2;
  Effects fx;
  AppMsg m1;
  m1.id = makeMsgId(0, 0);
  m1.origin = 0;
  m1.body = makePut(7, 1);
  store.onInput(ctx, Payload::of(BroadcastInput{m1}), fx);
  // A remote entry with a higher timestamp wins.
  GossipLwwStore::Entry remote;
  remote.value = 2;
  remote.timestamp = 99;
  remote.origin = 1;
  remote.sourceMsg = makeMsgId(1, 0);
  store.onMessage(ctx, 1, gossipMsg({{7, remote}}), fx);
  EXPECT_EQ(store.table().at(7).value, 2u);
  // A remote entry with a lower timestamp loses.
  GossipLwwStore::Entry stale = remote;
  stale.timestamp = 1;
  stale.value = 3;
  stale.sourceMsg = makeMsgId(1, 1);
  store.onMessage(ctx, 1, gossipMsg({{7, stale}}), fx);
  EXPECT_EQ(store.table().at(7).value, 2u);
}

TEST(GossipLwwTest, EmitsAppliedEventOncePerUpdate) {
  GossipLwwStore store;
  StepContext ctx;
  ctx.self = 0;
  ctx.processCount = 2;
  Effects fx;
  GossipLwwStore::Entry e;
  e.value = 1;
  e.timestamp = 5;
  e.origin = 1;
  e.sourceMsg = makeMsgId(1, 0);
  store.onMessage(ctx, 1, gossipMsg({{1, e}}), fx);
  store.onMessage(ctx, 1, gossipMsg({{1, e}}), fx);
  std::size_t applied = 0;
  for (const auto& out : fx.outputs()) {
    if (out.holds<GossipApplied>()) ++applied;
  }
  EXPECT_EQ(applied, 1u);
}

TEST(GossipLwwTest, BroadcastsShareOneTableUntilItChanges) {
  GossipLwwStore store;
  gossipPut(store, 0, 0, 1, 10);
  const auto first = gossipTableOf(store);
  const auto second = gossipTableOf(store);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first, second) << "no change between broadcasts: one object";

  gossipPut(store, 0, 1, 1, 20);
  const auto third = gossipTableOf(store);
  ASSERT_NE(third, nullptr);
  EXPECT_NE(third, first) << "a change publishes a new object";
  EXPECT_EQ(third->at(1).value, 20u);
  EXPECT_EQ(first->at(1).value, 10u) << "a sent table never changes";
}

TEST(GossipLwwTest, OlderTableFromTheSameSenderAdoptsNothing) {
  GossipLwwStore sender;
  gossipPut(sender, 1, 0, 1, 10);
  const auto t1 = gossipTableOf(sender);
  gossipPut(sender, 1, 1, 1, 20);
  gossipPut(sender, 1, 2, 2, 30);
  const auto t2 = gossipTableOf(sender);

  GossipLwwStore receiver;
  StepContext ctx;
  ctx.processCount = 2;
  Effects fx;
  receiver.onMessage(ctx, 1, Payload::of(GossipStateMsg{t2}), fx);
  EXPECT_EQ(fx.outputs().size(), 2u);
  const GossipLwwStore::Table afterT2 = receiver.table();

  fx.clear();
  receiver.onMessage(ctx, 1, Payload::of(GossipStateMsg{t1}), fx);
  EXPECT_TRUE(fx.outputs().empty());
  EXPECT_EQ(receiver.table(), afterT2);
  EXPECT_EQ(receiver.table().at(1).value, 20u);
}

TEST(GossipLwwTest, MergesATablePublishedAgainAfterAChange) {
  GossipLwwStore sender;
  gossipPut(sender, 1, 0, 1, 10);
  const auto t1 = gossipTableOf(sender);

  GossipLwwStore receiver;
  StepContext ctx;
  ctx.processCount = 2;
  Effects fx;
  receiver.onMessage(ctx, 1, Payload::of(GossipStateMsg{t1}), fx);
  receiver.onMessage(ctx, 1, Payload::of(GossipStateMsg{t1}), fx);
  EXPECT_EQ(fx.outputs().size(), 1u);

  gossipPut(sender, 1, 1, 2, 30);
  const auto t2 = gossipTableOf(sender);
  ASSERT_NE(t2, t1);
  fx.clear();
  receiver.onMessage(ctx, 1, Payload::of(GossipStateMsg{t2}), fx);
  ASSERT_EQ(fx.outputs().size(), 1u);
  EXPECT_EQ(fx.outputs()[0].as<GossipApplied>()->key, 2u);
  EXPECT_TRUE(receiver.sameTable(sender));
}

}  // namespace
}  // namespace wfd
