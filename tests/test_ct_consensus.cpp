// Integration tests: Chandra–Toueg rotating-coordinator consensus [3].
//
// CT solves REAL consensus (agreement from instance 1, always) given a
// correct majority — unlike Algorithm 4, which only promises eventual
// agreement but needs no majority. Running both through the same EC
// harness makes the paper's gap directly measurable.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "checkers/ec_checker.h"
#include "consensus/ct_consensus.h"
#include "ec/ec_driver.h"
#include "fd/detectors.h"
#include "helpers.h"

namespace wfd {
namespace {

using CtDriver = EcDriverAutomaton<CtConsensusAutomaton>;

SimConfig ctConfig(std::size_t n, std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.processCount = n;
  cfg.seed = seed;
  cfg.maxTime = 120000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 15;
  cfg.maxDelay = 30;
  return cfg;
}

Simulator makeCtSim(SimConfig cfg, FailurePattern fp,
                    std::shared_ptr<const FailureDetector> fd,
                    Instance maxInstances, std::uint64_t salt = 5) {
  Simulator sim(cfg, std::move(fp), std::move(fd));
  for (ProcessId p = 0; p < cfg.processCount; ++p) {
    sim.addProcess(p, std::make_unique<CtDriver>(CtConsensusAutomaton{},
                                                 binaryProposals(salt),
                                                 maxInstances));
  }
  return sim;
}

bool allDecided(const Simulator& sim, Instance upTo) {
  return checkEcRun(sim.trace(), sim.failurePattern()).decidedByAllCorrect >=
         upTo;
}

TEST(CtConsensusTest, StableOmegaAgreementFromInstanceOne) {
  auto cfg = ctConfig(3);
  auto fp = FailurePattern::noFailures(3);
  auto omega = std::make_shared<OmegaFd>(fp, 0, OmegaPreStabilization::kStable);
  auto sim = makeCtSim(cfg, fp, omega, 10);
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) { return allDecided(s, 10); }));
  const auto report = checkEcRun(sim.trace(), fp);
  EXPECT_TRUE(report.integrityOk);
  EXPECT_TRUE(report.validityOk);
  EXPECT_TRUE(report.terminationOk(10));
  EXPECT_EQ(report.agreementFromK, 1u) << "CT is real consensus";
}

TEST(CtConsensusTest, AgreementSafeEvenThroughSplitBrain) {
  // THE contrast with Algorithm 4: consensus agreement is a SAFETY
  // property — even while Omega is split-brain, no two processes may ever
  // decide differently in any instance.
  auto cfg = ctConfig(3);
  auto fp = FailurePattern::noFailures(3);
  auto omega =
      std::make_shared<OmegaFd>(fp, 1500, OmegaPreStabilization::kSplitBrain);
  auto sim = makeCtSim(cfg, fp, omega, 8);
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) { return allDecided(s, 8); }));
  const auto report = checkEcRun(sim.trace(), fp);
  EXPECT_EQ(report.agreementFromK, 1u)
      << "consensus never disagrees, even before stabilization";
  EXPECT_TRUE(report.integrityOk);
  EXPECT_TRUE(report.validityOk);
}

TEST(CtConsensusTest, WorksWithSuspicionListDetector) {
  auto cfg = ctConfig(3);
  auto fp = FailurePattern::crashesAt(3, {{2, 800}});
  auto fd = std::make_shared<EventuallyPerfectFd>(fp, 1500);
  auto sim = makeCtSim(cfg, fp, fd, 8);
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) { return allDecided(s, 8); }));
  const auto report = checkEcRun(sim.trace(), fp);
  EXPECT_EQ(report.agreementFromK, 1u);
  EXPECT_TRUE(report.terminationOk(8));
}

TEST(CtConsensusTest, CoordinatorCrashRecovers) {
  // p0 coordinates round 1 of every instance and crashes mid-run; the
  // rotation must carry instances to completion.
  auto cfg = ctConfig(3);
  auto fp = FailurePattern::crashesAt(3, {{0, 700}});
  auto omega = std::make_shared<OmegaFd>(fp, 1200, OmegaPreStabilization::kRotating);
  auto sim = makeCtSim(cfg, fp, omega, 8);
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) { return allDecided(s, 8); }));
  const auto report = checkEcRun(sim.trace(), fp);
  EXPECT_EQ(report.agreementFromK, 1u);
  EXPECT_TRUE(report.terminationOk(8));
}

TEST(CtConsensusTest, StallsWithoutCorrectMajority) {
  auto cfg = ctConfig(5);
  cfg.maxTime = 15000;
  auto fp = Environments::majorityCrash(5, 500);
  auto omega = std::make_shared<OmegaFd>(fp, 1000, OmegaPreStabilization::kRotating);
  auto sim = makeCtSim(cfg, fp, omega, 20);
  sim.run();
  const auto report = checkEcRun(sim.trace(), fp);
  // A handful of instances may complete before the crash; afterwards the
  // coordinator can never gather a majority of estimates again.
  EXPECT_LT(report.decidedByAllCorrect, 20u)
      << "CT must stall without a majority — the gap vs Algorithm 4";
  // But whatever was decided is consistent.
  EXPECT_EQ(report.agreementFromK, 1u);
}

// Sweep: CT safety and liveness across seeds and (majority-preserving)
// environments and detectors.
struct CtSweepParam {
  std::uint64_t seed;
  std::size_t n;
  std::size_t crashes;
  bool useSuspects;

  // gtest prints the parameter (and ctest names the test) with this.
  friend void PrintTo(const CtSweepParam& p, std::ostream* os) {
    *os << "seed" << p.seed << "_n" << p.n << "_crashes" << p.crashes
        << (p.useSuspects ? "_suspects" : "_omega");
  }
};

class CtSweepTest : public ::testing::TestWithParam<CtSweepParam> {};

TEST_P(CtSweepTest, ConsensusContractHolds) {
  const auto p = GetParam();
  auto cfg = ctConfig(p.n, p.seed);
  auto fp = p.crashes == 0
                ? FailurePattern::noFailures(p.n)
                : Environments::staggeredCrashes(p.n, p.crashes, 600, 50);
  std::shared_ptr<const FailureDetector> fd;
  if (p.useSuspects) {
    fd = std::make_shared<EventuallyPerfectFd>(fp, 1200, p.seed);
  } else {
    fd = std::make_shared<OmegaFd>(fp, 1200, OmegaPreStabilization::kRotating);
  }
  const Instance maxInstances = 6;
  auto sim = makeCtSim(cfg, fp, fd, maxInstances, p.seed);
  ASSERT_TRUE(sim.runUntil(
      [&](const Simulator& s) { return allDecided(s, maxInstances); }));
  const auto report = checkEcRun(sim.trace(), fp);
  EXPECT_EQ(report.agreementFromK, 1u);
  EXPECT_TRUE(report.integrityOk);
  EXPECT_TRUE(report.validityOk);
  EXPECT_TRUE(report.terminationOk(maxInstances));
}

std::vector<CtSweepParam> ctSweep() {
  std::vector<CtSweepParam> out;
  for (std::uint64_t seed : {3u, 13u, 37u}) {
    for (std::size_t n : {3u, 5u}) {
      for (bool suspects : {false, true}) {
        out.push_back({seed, n, 0, suspects});
        out.push_back({seed, n, (n - 1) / 2, suspects});  // minority crash
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CtSweepTest, ::testing::ValuesIn(ctSweep()));

}  // namespace
}  // namespace wfd
