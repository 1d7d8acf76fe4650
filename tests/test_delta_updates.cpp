// Tests: the delta-update ablation — EtobDeltaMsg mode must be
// behaviour-identical to the paper's full-graph updates (same delivery
// sequences, same spec) at a fraction of the gossip weight.
#include <gtest/gtest.h>

#include <memory>

#include "checkers/tob_checker.h"
#include "checkers/workload.h"
#include "etob/etob_automaton.h"
#include "fd/detectors.h"
#include "helpers.h"

namespace wfd {
namespace {

struct RunOutcome {
  std::vector<std::vector<MsgId>> finalDelivered;
  std::uint64_t messages = 0;
  std::uint64_t weight = 0;
  BroadcastCheckReport report;
};

RunOutcome run(bool delta, std::uint64_t seed, Time tauOmega,
               std::uint64_t promoteRefreshEvery = 1) {
  SimConfig cfg;
  cfg.processCount = 3;
  cfg.seed = seed;
  cfg.maxTime = 30000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  auto fp = FailurePattern::noFailures(3);
  auto omega = std::make_shared<OmegaFd>(
      fp, tauOmega,
      tauOmega == 0 ? OmegaPreStabilization::kStable
                    : OmegaPreStabilization::kSplitBrain);
  Simulator sim(cfg, fp, omega);
  EtobConfig protoCfg;
  protoCfg.deltaUpdates = delta;
  protoCfg.promoteRefreshEvery = promoteRefreshEvery;
  for (ProcessId p = 0; p < 3; ++p) {
    sim.addProcess(p, std::make_unique<EtobAutomaton>(protoCfg));
  }
  BroadcastWorkload w;
  w.perProcess = 6;
  w.causalChainPerOrigin = true;
  auto log = scheduleBroadcastWorkload(sim, w);
  sim.runUntil([&](const Simulator& s) {
    return s.now() > tauOmega + 1500 && broadcastConverged(s, log);
  });
  RunOutcome out;
  for (ProcessId p = 0; p < 3; ++p) {
    out.finalDelivered.push_back(sim.trace().currentDelivered(p));
  }
  out.messages = sim.trace().messagesSent();
  out.weight = sim.trace().weightSent();
  out.report = checkBroadcastRun(sim.trace(), log, fp);
  return out;
}

TEST(DeltaUpdateTest, IdenticalDeliverySequences) {
  for (std::uint64_t seed : {1u, 9u, 17u}) {
    auto full = run(false, seed, 0);
    auto delta = run(true, seed, 0);
    EXPECT_EQ(full.finalDelivered, delta.finalDelivered) << "seed " << seed;
  }
}

TEST(DeltaUpdateTest, SpecHoldsInDeltaMode) {
  auto out = run(true, 5, 1200);
  EXPECT_TRUE(out.report.coreOk())
      << (out.report.errors.empty() ? "" : out.report.errors[0]);
  EXPECT_TRUE(out.report.causalOrderOk);
}

TEST(DeltaUpdateTest, DeltaModeIsMuchLighter) {
  // With promote suppression active in BOTH runs, update traffic
  // dominates and the delta encoding must cut the gossip weight hard.
  auto full = run(false, 3, 0, /*promoteRefreshEvery=*/50);
  auto delta = run(true, 3, 0, /*promoteRefreshEvery=*/50);
  EXPECT_EQ(full.finalDelivered, delta.finalDelivered);
  EXPECT_LT(delta.weight * 2, full.weight)
      << "delta updates must at least halve the gossip weight "
      << "(full=" << full.weight << ", delta=" << delta.weight << ")";
}

TEST(DeltaUpdateTest, PromoteSuppressionIsLighterAndStillConverges) {
  // Promotes are delta-encoded, so re-promoting every λ re-ships only an
  // empty suffix and costs little weight; what suppression saves is the
  // promote messages themselves, which dominate the message count.
  auto everyLambda = run(false, 3, 1200, /*promoteRefreshEvery=*/1);
  auto suppressed = run(false, 3, 1200, /*promoteRefreshEvery=*/50);
  EXPECT_TRUE(suppressed.report.coreOk());
  EXPECT_LT(suppressed.messages * 3, everyLambda.messages)
      << "promote-on-change should cut the dominant promote traffic "
      << "(every-λ=" << everyLambda.messages << ", suppressed="
      << suppressed.messages << ")";
  // The convergence bound relaxes to τ_Ω + N·Δ_t + Δ_c.
  EXPECT_LE(suppressed.report.tau, 1200 + 50 * 10 + 40);
}

TEST(DeltaUpdateTest, PlaceholderDepsResolveAcrossDeltas) {
  // Client-session dependency (dep unknown at broadcast) in delta mode:
  // the dependent must stay buffered until the dep's delta arrives, then
  // deliver in causal order.
  SimConfig cfg;
  cfg.processCount = 3;
  cfg.seed = 2;
  cfg.maxTime = 20000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  auto fp = FailurePattern::noFailures(3);
  auto omega = std::make_shared<OmegaFd>(fp, 0, OmegaPreStabilization::kStable);
  Simulator sim(cfg, fp, omega);
  EtobConfig protoCfg;
  protoCfg.deltaUpdates = true;
  for (ProcessId p = 0; p < 3; ++p) {
    sim.addProcess(p, std::make_unique<EtobAutomaton>(protoCfg));
  }
  BroadcastLog log;
  AppMsg a;
  a.id = makeMsgId(0, 0);
  a.origin = 0;
  AppMsg b;
  b.id = makeMsgId(1, 0);
  b.origin = 1;
  b.causalDeps = {a.id};  // declared 3 ticks later, before a's delta lands
  log.record(a, 100);
  log.record(b, 103);
  sim.scheduleInput(0, 100, Payload::of(BroadcastInput{a}));
  sim.scheduleInput(1, 103, Payload::of(BroadcastInput{b}));
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) {
    return broadcastConverged(s, log);
  }));
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  EXPECT_TRUE(report.causalOrderOk)
      << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_TRUE(report.coreOk());
}

}  // namespace
}  // namespace wfd
