// Integration tests: the §7 extension — committed-prefix indications on
// top of ET OB. Under the paper's proviso (majority correct, leader
// eventually stable) indications must be produced and NEVER revoked; when
// the majority is gone indications must stop advancing (rather than lie).
#include <gtest/gtest.h>

#include <memory>

#include "checkers/commit_checker.h"
#include "checkers/tob_checker.h"
#include "checkers/workload.h"
#include "etob/commit_etob.h"
#include "fd/detectors.h"
#include "helpers.h"

namespace wfd {
namespace {

SimConfig commitConfig(std::size_t n, std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.processCount = n;
  cfg.seed = seed;
  cfg.maxTime = 30000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  return cfg;
}

Simulator makeCommitSim(SimConfig cfg, FailurePattern fp, Time tauOmega,
                        OmegaPreStabilization mode, EtobConfig protoCfg = {}) {
  auto omega = std::make_shared<OmegaFd>(fp, tauOmega, mode);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < cfg.processCount; ++p) {
    sim.addProcess(p, std::make_unique<CommitEtobAutomaton>(protoCfg));
  }
  return sim;
}

TEST(CommitEtobTest, StableLeaderCommitsEverythingSafely) {
  auto cfg = commitConfig(3);
  auto fp = FailurePattern::noFailures(3);
  auto sim = makeCommitSim(cfg, fp, 0, OmegaPreStabilization::kStable);
  BroadcastWorkload w;
  w.perProcess = 5;
  auto log = scheduleBroadcastWorkload(sim, w);
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) {
    const auto commit = checkCommitSafety(s.trace(), s.failurePattern());
    return commit.committedLenAllCorrect >= log.size();
  }));
  const auto commit = checkCommitSafety(sim.trace(), fp);
  EXPECT_TRUE(commit.safetyOk())
      << (commit.errors.empty() ? "" : commit.errors[0]);
  EXPECT_EQ(commit.committedLenAllCorrect, log.size());
  // The underlying broadcast still satisfies the full spec.
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  EXPECT_TRUE(report.coreOk()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_TRUE(report.strongTobOk());
}

TEST(CommitEtobTest, CommitsSafeAcrossLateStabilization) {
  auto cfg = commitConfig(3);
  auto fp = FailurePattern::noFailures(3);
  const Time tauOmega = 1500;
  auto sim = makeCommitSim(cfg, fp, tauOmega, OmegaPreStabilization::kRotating);
  BroadcastWorkload w;
  w.perProcess = 5;
  auto log = scheduleBroadcastWorkload(sim, w);
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) {
    const auto commit = checkCommitSafety(s.trace(), s.failurePattern());
    return s.now() > tauOmega + 1000 &&
           commit.committedLenAllCorrect >= log.size();
  }));
  const auto commit = checkCommitSafety(sim.trace(), fp);
  EXPECT_TRUE(commit.safetyOk())
      << (commit.errors.empty() ? "" : commit.errors[0]);
  // Rotating pre-stabilization leaders may produce (safety-preserving)
  // conflicting commits — that is exactly the outside-the-proviso case §7
  // allows. What must hold is that NO NEW conflicts appear once Omega is
  // stable: keep running to maxTime and require the counters frozen.
  const auto totalConflicts = [&sim] {
    std::uint64_t total = 0;
    for (ProcessId p = 0; p < 3; ++p) {
      total += static_cast<const CommitEtobAutomaton&>(sim.automaton(p))
                   .commitConflicts();
    }
    return total;
  };
  const std::uint64_t atConvergence = totalConflicts();
  sim.run();
  EXPECT_EQ(totalConflicts(), atConvergence)
      << "conflicting commits after Omega stabilized";
  const auto late = checkCommitSafety(sim.trace(), fp);
  EXPECT_TRUE(late.safetyOk())
      << (late.errors.empty() ? "" : late.errors[0]);
}

TEST(CommitEtobTest, CommitsSafeAcrossLeaderCrash) {
  auto cfg = commitConfig(3);
  auto fp = FailurePattern::crashesAt(3, {{0, 2500}});
  auto sim = makeCommitSim(cfg, fp, 3500, OmegaPreStabilization::kRotating);
  BroadcastWorkload w;
  w.perProcess = 4;
  auto log = scheduleBroadcastWorkload(sim, w);
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) {
    const auto commit = checkCommitSafety(s.trace(), s.failurePattern());
    return s.now() > 5000 && commit.committedLenAllCorrect >= log.size();
  }));
  const auto commit = checkCommitSafety(sim.trace(), fp);
  EXPECT_TRUE(commit.safetyOk())
      << (commit.errors.empty() ? "" : commit.errors[0]);
}

TEST(CommitEtobTest, NoMajorityNoNewCommits) {
  auto cfg = commitConfig(5);
  cfg.maxTime = 15000;
  auto fp = Environments::majorityCrash(5, 2000);
  auto sim = makeCommitSim(cfg, fp, 2500, OmegaPreStabilization::kSplitBrain);
  BroadcastWorkload w;
  w.start = 3000;  // all broadcasts after the majority is gone
  w.perProcess = 4;
  auto log = scheduleBroadcastWorkload(sim, w);
  sim.run();
  const auto commit = checkCommitSafety(sim.trace(), fp);
  // Deliveries still flow (eventual consistency needs only Omega)...
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  EXPECT_TRUE(report.coreOk()) << (report.errors.empty() ? "" : report.errors[0]);
  // ...but nothing can be committed: acks can never reach a majority.
  EXPECT_EQ(commit.committedLenAllCorrect, 0u)
      << "commit indications require a majority — the Sigma-like price";
  EXPECT_TRUE(commit.safetyOk());
}

TEST(CommitEtobTest, IndicationMonotonePerProcess) {
  auto cfg = commitConfig(3);
  auto fp = FailurePattern::noFailures(3);
  auto sim = makeCommitSim(cfg, fp, 0, OmegaPreStabilization::kStable);
  BroadcastWorkload w;
  w.perProcess = 6;
  auto log = scheduleBroadcastWorkload(sim, w);
  sim.runUntil([&](const Simulator& s) {
    return checkCommitSafety(s.trace(), s.failurePattern())
               .committedLenAllCorrect >= log.size();
  });
  for (ProcessId p = 0; p < 3; ++p) {
    std::uint64_t last = 0;
    for (const auto& ev : sim.trace().outputs(p)) {
      if (const auto* c = ev.value.as<CommittedPrefix>()) {
        EXPECT_GE(c->length, last) << "commit watermark must be monotone";
        last = c->length;
      }
    }
    EXPECT_GT(last, 0u);
  }
}

TEST(CommitEtobTest, PromoteRefreshEveryCutsMessages) {
  // The promote cadence lives in EtobCore, so commit-eTOB honours
  // promoteRefreshEvery like plain eTOB: fewer promotes (and fewer acks),
  // with every broadcast still committed safely.
  const auto run = [](std::uint64_t refreshEvery) {
    auto cfg = commitConfig(3);
    cfg.maxTime = 6000;
    auto fp = FailurePattern::noFailures(3);
    EtobConfig protoCfg;
    protoCfg.promoteRefreshEvery = refreshEvery;
    auto sim = makeCommitSim(cfg, fp, 0, OmegaPreStabilization::kStable, protoCfg);
    BroadcastWorkload w;
    w.perProcess = 5;
    auto log = scheduleBroadcastWorkload(sim, w);
    sim.run();
    const auto commit = checkCommitSafety(sim.trace(), fp);
    EXPECT_TRUE(commit.safetyOk())
        << (commit.errors.empty() ? "" : commit.errors[0]);
    EXPECT_EQ(commit.committedLenAllCorrect, log.size())
        << "promoteRefreshEvery = " << refreshEvery;
    return sim.trace().messagesSent();
  };
  const std::uint64_t everyLambda = run(1);
  const std::uint64_t suppressed = run(50);
  EXPECT_LT(suppressed * 3, everyLambda)
      << "every-λ=" << everyLambda << ", suppressed=" << suppressed;
}

TEST(CommitEtobTest, PromoteContradictingCommitIsRefused) {
  // Mutation guard on the commit guard in CommitEtobAutomaton::onMessage:
  // without it the {m2} promote replaces the committed {m1} in d_i.
  CommitEtobAutomaton a;
  StepContext ctx;
  ctx.self = 0;
  ctx.processCount = 3;
  ctx.fd.leader = 2;
  AppMsg m1;
  m1.id = makeMsgId(1, 0);
  m1.origin = 1;
  AppMsg m2;
  m2.id = makeMsgId(2, 0);
  m2.origin = 2;
  Effects commitFx;
  a.onMessage(ctx, 2, Payload::of(EtobCommitMsg{{m1}}), commitFx);
  EXPECT_EQ(a.committedPrefix(), (std::vector<MsgId>{m1.id}));
  EXPECT_EQ(a.delivered(), (std::vector<MsgId>{m1.id}));

  Effects refusedFx;
  a.onMessage(ctx, 2, Payload::of(EtobPromoteMsg{{m2}, 1}), refusedFx);
  EXPECT_EQ(a.delivered(), (std::vector<MsgId>{m1.id}))
      << "a promote contradicting the committed prefix must not be adopted";
  EXPECT_EQ(refusedFx.delivered(), nullptr);
  EXPECT_TRUE(refusedFx.sends().empty()) << "a refused promote is not acked";

  Effects adoptedFx;
  a.onMessage(ctx, 2, Payload::of(EtobPromoteMsg{{m1, m2}, 2}), adoptedFx);
  EXPECT_EQ(a.delivered(), (std::vector<MsgId>{m1.id, m2.id}));
  ASSERT_EQ(adoptedFx.sends().size(), 1u);
  EXPECT_EQ(adoptedFx.sends()[0].to, 2u);
  const auto* ack = adoptedFx.sends()[0].payload.as<EtobAckMsg>();
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->epoch, 2u);
}

TEST(CommitEtobTest, AdoptedBodyDrainsAtTheFirstUpdateNamingIt) {
  // A promote-adopted body that a commit's rebase puts into the graph
  // stays buffered until an update whose graph contains its id arrives;
  // an update about other messages does not drain it.
  CommitEtobAutomaton a;
  StepContext ctx;
  ctx.self = 0;
  ctx.processCount = 3;
  ctx.fd.leader = 2;
  AppMsg m;
  m.id = makeMsgId(2, 0);
  m.origin = 2;
  AppMsg other;
  other.id = makeMsgId(1, 0);
  other.origin = 1;
  Effects fx;
  a.onMessage(ctx, 2, Payload::of(EtobPromoteMsg{{m}, 1}), fx);
  ASSERT_EQ(a.adoptedBodyCount(), 1u);
  a.onMessage(ctx, 2, Payload::of(EtobCommitMsg{{m}}), fx);
  ASSERT_TRUE(a.causalityGraph().contains(m.id)) << "learned by the rebase";
  EXPECT_EQ(a.adoptedBodyCount(), 1u);
  CausalityGraph fromOne;
  fromOne.addMessage(other, {});
  a.onMessage(ctx, 1, Payload::of(EtobUpdateMsg{fromOne.snapshot()}), fx);
  EXPECT_EQ(a.adoptedBodyCount(), 1u) << "an update not naming m keeps it";
  CausalityGraph fromTwo;
  fromTwo.addMessage(m, {});
  a.onMessage(ctx, 2, Payload::of(EtobUpdateMsg{fromTwo.snapshot()}), fx);
  EXPECT_EQ(a.adoptedBodyCount(), 0u);
}

/// Leader 0 of three learns m1 and then `a` and `b` (each after m1,
/// concurrent with each other) in that order, so it promotes {m1, a, b}
/// at epoch 1. It then learns the commit {m1} — a rebase, which
/// re-extends {m1} in canonical order (concurrent ties by id) — and only
/// then collects a majority of acks for epoch 1.
struct RebasedAckOutcome {
  std::vector<MsgId> committed;
  std::uint64_t conflicts = 0;
  bool commitSent = false;
};
RebasedAckOutcome ackEpochAfterRebase(MsgId a, MsgId b) {
  auto message = [](MsgId id) {
    AppMsg m;
    m.id = id;
    m.origin = msgIdOrigin(id);
    return m;
  };
  CommitEtobAutomaton leader;
  StepContext ctx;
  ctx.self = 0;
  ctx.processCount = 3;
  ctx.fd.leader = 0;
  Effects fx;
  CausalityGraph peer;  // what process 1 knows and gossips
  const AppMsg m1 = message(makeMsgId(1, 0));
  for (const auto& [m, deps] : {std::pair{m1, std::vector<MsgId>{}},
                                std::pair{message(a), std::vector{m1.id}},
                                std::pair{message(b), std::vector{m1.id}}}) {
    peer.addMessage(m, deps);
    leader.onMessage(ctx, 1, Payload::of(EtobUpdateMsg{peer.snapshot()}), fx);
  }
  Effects promoteFx;
  leader.onTimeout(ctx, promoteFx);
  std::vector<MsgId> promoted;
  for (const auto& out : promoteFx.sends()) {
    if (const auto* p = out.payload.as<EtobPromoteMsg>()) {
      for (const AppMsg& m : p->seq) promoted.push_back(m.id);
    }
  }
  EXPECT_EQ(promoted, (std::vector<MsgId>{m1.id, a, b}));
  leader.onMessage(ctx, 1, Payload::of(EtobCommitMsg{{m1}}), fx);
  Effects ackFx;
  leader.onMessage(ctx, 1, Payload::of(EtobAckMsg{1}), ackFx);
  leader.onMessage(ctx, 2, Payload::of(EtobAckMsg{1}), ackFx);
  return {leader.committedPrefix(), leader.commitConflicts(), !ackFx.sends().empty()};
}

TEST(CommitEtobTest, StaleEpochGuardJudgesTheRebasedOrder) {
  // Mutation guard on the stale-epoch guard in the ack path: the
  // epoch-1 candidate {m1, a, b} may commit only while the rebased
  // promote sequence still starts with it.
  const MsgId m1 = makeMsgId(1, 0);
  const MsgId lo = makeMsgId(1, 1);
  const MsgId hi = makeMsgId(2, 0);
  // Rebased to {m1, lo, hi}: the candidate is still a prefix.
  const RebasedAckOutcome kept = ackEpochAfterRebase(lo, hi);
  EXPECT_EQ(kept.committed, (std::vector<MsgId>{m1, lo, hi}));
  EXPECT_EQ(kept.conflicts, 0u);
  EXPECT_TRUE(kept.commitSent);
  // Promoted {m1, hi, lo}, rebased to {m1, lo, hi}: refused.
  const RebasedAckOutcome moot = ackEpochAfterRebase(hi, lo);
  EXPECT_EQ(moot.committed, (std::vector<MsgId>{m1}));
  EXPECT_EQ(moot.conflicts, 0u) << "refused by the guard, not as a conflict";
  EXPECT_FALSE(moot.commitSent);
}

/// Leader 0 of `n` that learned one message from process 1's update and
/// then promoted it `promotes` times (epochs 1..promotes, each {m}).
CommitEtobAutomaton leaderWithPromotes(std::size_t n, std::uint64_t promotes,
                                       StepContext& ctx) {
  CommitEtobAutomaton leader;
  ctx.self = 0;
  ctx.processCount = n;
  ctx.fd.leader = 0;
  AppMsg m;
  m.id = makeMsgId(1, 0);
  m.origin = 1;
  CausalityGraph peer;
  peer.addMessage(m, {});
  Effects fx;
  leader.onMessage(ctx, 1, Payload::of(EtobUpdateMsg{peer.snapshot()}), fx);
  for (std::uint64_t k = 0; k < promotes; ++k) {
    Effects promoteFx;
    leader.onTimeout(ctx, promoteFx);
    EXPECT_EQ(promoteFx.sends().size(), 1u) << "promote " << k + 1;
  }
  return leader;
}

TEST(CommitEtobTest, RepeatedAckCountsOnceTowardTheMajority) {
  // Of three processes, two must acknowledge: the same follower's ack
  // for epoch 1, received twice, is one vote.
  StepContext ctx;
  CommitEtobAutomaton leader = leaderWithPromotes(3, 1, ctx);
  Effects fx;
  leader.onMessage(ctx, 1, Payload::of(EtobAckMsg{1}), fx);
  leader.onMessage(ctx, 1, Payload::of(EtobAckMsg{1}), fx);
  EXPECT_TRUE(leader.committedPrefix().empty());
  EXPECT_TRUE(fx.sends().empty()) << "no commit from one voter";
  leader.onMessage(ctx, 2, Payload::of(EtobAckMsg{1}), fx);
  EXPECT_EQ(leader.committedPrefix(), (std::vector<MsgId>{makeMsgId(1, 0)}));
  ASSERT_EQ(fx.sends().size(), 1u);
  EXPECT_TRUE(fx.sends()[0].payload.holds<EtobCommitMsg>());
}

TEST(CommitEtobTest, AckForAPrunedEpochIsIgnored) {
  // After 130 promotes, epochs more than 128 behind the newest (just
  // epoch 1) are pruned: a majority of acks for it commits nothing,
  // while the same acks for a kept epoch commit.
  StepContext ctx;
  CommitEtobAutomaton leader = leaderWithPromotes(3, 130, ctx);
  Effects fx;
  leader.onMessage(ctx, 1, Payload::of(EtobAckMsg{1}), fx);
  leader.onMessage(ctx, 2, Payload::of(EtobAckMsg{1}), fx);
  EXPECT_TRUE(leader.committedPrefix().empty());
  EXPECT_TRUE(fx.sends().empty());
  leader.onMessage(ctx, 1, Payload::of(EtobAckMsg{2}), fx);
  leader.onMessage(ctx, 2, Payload::of(EtobAckMsg{2}), fx);
  EXPECT_EQ(leader.committedPrefix(), (std::vector<MsgId>{makeMsgId(1, 0)}));
}

// Sweep: commit safety across seeds and environments with a majority.
class CommitSweepTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(CommitSweepTest, CommitSafetyHolds) {
  const auto [seed, crashes] = GetParam();
  auto cfg = commitConfig(5, seed);
  auto fp = crashes == 0 ? FailurePattern::noFailures(5)
                         : Environments::staggeredCrashes(5, crashes, 1200, 100);
  auto sim = makeCommitSim(cfg, fp, 2000, OmegaPreStabilization::kRotating);
  BroadcastWorkload w;
  w.perProcess = 4;
  auto log = scheduleBroadcastWorkload(sim, w);
  sim.runUntil([&](const Simulator& s) {
    return s.now() > 4000 &&
           checkCommitSafety(s.trace(), s.failurePattern())
                   .committedLenAllCorrect >= log.size();
  });
  const auto commit = checkCommitSafety(sim.trace(), fp);
  EXPECT_TRUE(commit.safetyOk())
      << (commit.errors.empty() ? "" : commit.errors[0]);
  EXPECT_GT(commit.indications, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CommitSweepTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 7, 19, 43),
                       ::testing::Values<std::size_t>(0, 2)));

}  // namespace
}  // namespace wfd
