// Integration tests: Algorithm 4 (EC from Omega) against the EC
// specification, in environments with and without a correct majority —
// the sufficiency half of Theorem 2.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "checkers/ec_checker.h"
#include "ec/ec_driver.h"
#include "ec/omega_ec.h"
#include "fd/detectors.h"
#include "helpers.h"

namespace wfd {
namespace {

using Driver = EcDriverAutomaton<OmegaEcAutomaton>;

SimConfig ecConfig(std::size_t n, std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.processCount = n;
  cfg.seed = seed;
  cfg.maxTime = 60000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 15;
  cfg.maxDelay = 30;
  return cfg;
}

Simulator makeEcSim(SimConfig cfg, FailurePattern fp, Time tauOmega,
                    OmegaPreStabilization mode, Instance maxInstances,
                    std::uint64_t salt = 5) {
  auto omega = std::make_shared<OmegaFd>(fp, tauOmega, mode);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < cfg.processCount; ++p) {
    sim.addProcess(p, std::make_unique<Driver>(OmegaEcAutomaton{},
                                               binaryProposals(salt),
                                               maxInstances));
  }
  return sim;
}

bool allDecided(const Simulator& sim, Instance upTo) {
  const auto report = checkEcRun(sim.trace(), sim.failurePattern());
  return report.decidedByAllCorrect >= upTo;
}

TEST(OmegaEcTest, StableLeaderAgreesFromFirstInstance) {
  auto cfg = ecConfig(3);
  auto fp = FailurePattern::noFailures(3);
  auto sim = makeEcSim(cfg, fp, 0, OmegaPreStabilization::kStable, 10);
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) { return allDecided(s, 10); }));
  const auto report = checkEcRun(sim.trace(), fp);
  EXPECT_TRUE(report.integrityOk);
  EXPECT_TRUE(report.validityOk);
  EXPECT_TRUE(report.terminationOk(10));
  EXPECT_EQ(report.agreementFromK, 1u) << "stable Omega: no disagreement ever";
}

TEST(OmegaEcTest, SplitBrainDisagreesThenAgrees) {
  auto cfg = ecConfig(3);
  auto fp = FailurePattern::noFailures(3);
  // Split-brain phase long enough that early instances can disagree but
  // short enough that later instances run under the stable leader.
  auto sim = makeEcSim(cfg, fp, 300, OmegaPreStabilization::kSplitBrain, 40);
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) { return allDecided(s, 40); }));
  const auto report = checkEcRun(sim.trace(), fp);
  EXPECT_TRUE(report.integrityOk);
  EXPECT_TRUE(report.validityOk);
  EXPECT_TRUE(report.terminationOk(40));
  // Agreement holds from SOME finite instance (the EC contract). With a
  // 300-tick split-brain phase there should be early disagreement, which
  // is what distinguishes EC from consensus.
  EXPECT_GT(report.agreementFromK, 1u);
  EXPECT_LE(report.agreementFromK, 40u);
}

TEST(OmegaEcTest, TerminatesWithoutCorrectMajority) {
  // 3 of 5 crash — Algorithm 4 needs no quorum (unlike Paxos).
  auto cfg = ecConfig(5);
  auto fp = Environments::staggeredCrashes(5, 3, 400, 50);
  auto sim = makeEcSim(cfg, fp, 600, OmegaPreStabilization::kSplitBrain, 20);
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) { return allDecided(s, 20); }));
  const auto report = checkEcRun(sim.trace(), fp);
  EXPECT_TRUE(report.integrityOk);
  EXPECT_TRUE(report.validityOk);
  EXPECT_TRUE(report.terminationOk(20));
  EXPECT_LE(report.agreementFromK, 20u);
}

TEST(OmegaEcTest, LeaderCrashStillTerminates) {
  auto cfg = ecConfig(3);
  auto fp = FailurePattern::crashesAt(3, {{0, 1000}});
  // Rotating leaders before stabilization on p1 (lowest correct).
  auto sim = makeEcSim(cfg, fp, 2000, OmegaPreStabilization::kRotating, 12);
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) { return allDecided(s, 12); }));
  const auto report = checkEcRun(sim.trace(), fp);
  EXPECT_TRUE(report.terminationOk(12));
  EXPECT_TRUE(report.integrityOk);
  EXPECT_TRUE(report.validityOk);
}

TEST(OmegaEcTest, DecisionValueComesFromTrustedLeader) {
  // Unit-level: feed promotes from two processes; decide only the
  // leader's value.
  OmegaEcAutomaton ec;
  StepContext ctx;
  ctx.self = 0;
  ctx.processCount = 3;
  ctx.fd.leader = 2;
  Effects fx;
  ec.onInput(ctx, Payload::of(ProposeInput{1, Value{0}}), fx);
  ec.onMessage(ctx, 1, Payload::of(EcPromoteMsg{Value{0}, 1}), fx);
  fx.clear();
  ec.onTimeout(ctx, fx);
  EXPECT_TRUE(fx.outputs().empty()) << "p1 is not the leader";
  ec.onMessage(ctx, 2, Payload::of(EcPromoteMsg{Value{1}, 1}), fx);
  fx.clear();
  ec.onTimeout(ctx, fx);
  ASSERT_EQ(fx.outputs().size(), 1u);
  const auto* d = fx.outputs()[0].as<EcDecision>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->instance, 1u);
  EXPECT_EQ(d->value, Value{1});
}

TEST(OmegaEcTest, DecidesAtMostOncePerInstance) {
  OmegaEcAutomaton ec;
  StepContext ctx;
  ctx.self = 0;
  ctx.processCount = 2;
  ctx.fd.leader = 1;
  Effects fx;
  ec.onInput(ctx, Payload::of(ProposeInput{1, Value{0}}), fx);
  ec.onMessage(ctx, 1, Payload::of(EcPromoteMsg{Value{1}, 1}), fx);
  fx.clear();
  ec.onTimeout(ctx, fx);
  EXPECT_EQ(fx.outputs().size(), 1u);
  fx.clear();
  ec.onTimeout(ctx, fx);
  EXPECT_TRUE(fx.outputs().empty()) << "EC-Integrity: one response";
}

// Property sweep: the EC contract across seeds, n, tau and environment.
struct EcSweepParam {
  std::uint64_t seed;
  std::size_t n;
  Time tau;
  std::size_t crashes;

  // gtest prints the parameter (and ctest names the test) with this.
  friend void PrintTo(const EcSweepParam& p, std::ostream* os) {
    *os << "seed" << p.seed << "_n" << p.n << "_tau" << p.tau << "_crashes"
        << p.crashes;
  }
};

class EcSweepTest : public ::testing::TestWithParam<EcSweepParam> {};

TEST_P(EcSweepTest, EcContractHolds) {
  const auto p = GetParam();
  auto cfg = ecConfig(p.n, p.seed);
  auto fp = p.crashes == 0
                ? FailurePattern::noFailures(p.n)
                : Environments::staggeredCrashes(p.n, p.crashes, 700, 40);
  const Instance maxInstances = 16;
  auto sim = makeEcSim(cfg, fp, p.tau, OmegaPreStabilization::kSplitBrain,
                       maxInstances, p.seed);
  ASSERT_TRUE(sim.runUntil(
      [&](const Simulator& s) { return allDecided(s, maxInstances); }))
      << "termination within budget";
  const auto report = checkEcRun(sim.trace(), fp);
  EXPECT_TRUE(report.integrityOk);
  EXPECT_TRUE(report.validityOk);
  EXPECT_TRUE(report.terminationOk(maxInstances));
  EXPECT_LE(report.agreementFromK, maxInstances)
      << "agreement must start within the run";
}

std::vector<EcSweepParam> ecSweep() {
  std::vector<EcSweepParam> out;
  for (std::uint64_t seed : {2u, 11u, 31u}) {
    for (std::size_t n : {2u, 3u, 5u}) {
      for (Time tau : {0u, 400u}) {
        out.push_back({seed, n, tau, 0});
        if (n == 5) out.push_back({seed, n, tau, 3});  // minority correct
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EcSweepTest, ::testing::ValuesIn(ecSweep()));

}  // namespace
}  // namespace wfd
