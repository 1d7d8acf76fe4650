// Failure-injection suite: partition windows, crash cascades, leader
// flapping and combinations — every admissible run must still satisfy the
// abstractions' specifications (the paper's guarantees quantify over ALL
// admissible runs, so adversarial-but-admissible scenarios are the
// property tests that matter).
#include <gtest/gtest.h>

#include <memory>

#include "checkers/commit_checker.h"
#include "checkers/ec_checker.h"
#include "checkers/tob_checker.h"
#include "checkers/workload.h"
#include "cht/extractor.h"
#include "ec/ec_driver.h"
#include "ec/omega_ec.h"
#include "etob/commit_etob.h"
#include "etob/etob_automaton.h"
#include "fd/detectors.h"
#include "helpers.h"

namespace wfd {
namespace {

SimConfig baseConfig(std::size_t n, std::uint64_t seed) {
  SimConfig cfg;
  cfg.processCount = n;
  cfg.seed = seed;
  cfg.maxTime = 40000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  return cfg;
}

TEST(FailureInjectionTest, EtobSurvivesRepeatedPartitionWindows) {
  auto cfg = baseConfig(4, 3);
  auto fp = FailurePattern::noFailures(4);
  const Time tauOmega = 2000;
  auto omega =
      std::make_shared<OmegaFd>(fp, tauOmega, OmegaPreStabilization::kSplitBrain);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < 4; ++p) {
    sim.addProcess(p, std::make_unique<EtobAutomaton>());
  }
  // Three successive partition windows cutting {0,1} | {2,3} both ways.
  for (Time start : {300u, 900u, 1500u}) {
    PartitionSpec d;
    d.start = start;
    d.width = 400;
    d.affects = [](ProcessId from, ProcessId to) {
      return (from < 2) != (to < 2);
    };
    sim.addPartition(d);
  }
  BroadcastWorkload w;
  w.perProcess = 6;
  auto log = scheduleBroadcastWorkload(sim, w);
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) {
    return s.now() > tauOmega + 2000 && broadcastConverged(s, log);
  }));
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  EXPECT_TRUE(report.coreOk()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_TRUE(report.causalOrderOk);
}

TEST(FailureInjectionTest, EtobPartitionAcrossStabilization) {
  // A partition window that straddles tau_Omega: promotes from the stable
  // leader are deferred past the window; convergence must still happen
  // (bounded by window end + Δ_t + Δ_c rather than the clean bound).
  auto cfg = baseConfig(3, 9);
  auto fp = FailurePattern::noFailures(3);
  auto omega = std::make_shared<OmegaFd>(fp, 1000, OmegaPreStabilization::kRotating);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < 3; ++p) {
    sim.addProcess(p, std::make_unique<EtobAutomaton>());
  }
  PartitionSpec d;
  d.start = 800;
  d.width = 1400;
  d.affects = [](ProcessId from, ProcessId) { return from == 0; };
  sim.addPartition(d);
  BroadcastWorkload w;
  w.perProcess = 5;
  auto log = scheduleBroadcastWorkload(sim, w);
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) {
    return s.now() > 3500 && broadcastConverged(s, log);
  }));
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  EXPECT_TRUE(report.coreOk()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_LE(report.tau, 2200 + cfg.timeoutPeriod + cfg.maxDelay)
      << "convergence within one promote round of the partition healing";
}

TEST(FailureInjectionTest, EcUnderCrashCascade) {
  // Processes crash one by one until only two remain; Algorithm 4 keeps
  // terminating instances throughout.
  auto cfg = baseConfig(5, 11);
  cfg.maxTime = 80000;
  auto fp = Environments::staggeredCrashes(5, 3, 500, 400);  // crashes at 500..1300
  auto omega =
      std::make_shared<OmegaFd>(fp, 1800, OmegaPreStabilization::kRotating);
  Simulator sim(cfg, fp, omega);
  const Instance maxInstances = 25;
  for (ProcessId p = 0; p < 5; ++p) {
    sim.addProcess(
        p, std::make_unique<EcDriverAutomaton<OmegaEcAutomaton>>(
               OmegaEcAutomaton{}, binaryProposals(21), maxInstances));
  }
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) {
    return checkEcRun(s.trace(), s.failurePattern()).decidedByAllCorrect >=
           maxInstances;
  }));
  const auto report = checkEcRun(sim.trace(), fp);
  EXPECT_TRUE(report.integrityOk);
  EXPECT_TRUE(report.validityOk);
  EXPECT_TRUE(report.terminationOk(maxInstances));
  EXPECT_LE(report.agreementFromK, maxInstances);
}

TEST(FailureInjectionTest, EtobLeaderFlappingNeverBreaksCore) {
  // Pathological Omega: rotates the leader every 40 ticks for a long
  // time. Stability/total-order are only eventual, but the four core
  // properties and causal order must hold during the chaos too.
  auto cfg = baseConfig(3, 17);
  auto fp = FailurePattern::noFailures(3);
  auto omega = std::make_shared<OmegaFd>(fp, 6000,
                                         OmegaPreStabilization::kRotating, 40);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < 3; ++p) {
    sim.addProcess(p, std::make_unique<EtobAutomaton>());
  }
  BroadcastWorkload w;
  w.perProcess = 6;
  w.causalChainPerOrigin = true;
  auto log = scheduleBroadcastWorkload(sim, w);
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) {
    return s.now() > 8000 && broadcastConverged(s, log);
  }));
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  EXPECT_TRUE(report.coreOk()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_TRUE(report.causalOrderOk);
  EXPECT_LE(report.tau, 6000 + cfg.timeoutPeriod + cfg.maxDelay);
}

TEST(FailureInjectionTest, CommitSafetyThroughPartitionAndCrash) {
  auto cfg = baseConfig(5, 23);
  auto fp = FailurePattern::crashesAt(5, {{4, 1800}});
  auto omega =
      std::make_shared<OmegaFd>(fp, 2400, OmegaPreStabilization::kRotating);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < 5; ++p) {
    sim.addProcess(p, std::make_unique<CommitEtobAutomaton>());
  }
  PartitionSpec d;
  d.start = 600;
  d.width = 800;
  d.affects = [](ProcessId from, ProcessId to) { return (from < 2) != (to < 2); };
  sim.addPartition(d);
  BroadcastWorkload w;
  w.perProcess = 4;
  auto log = scheduleBroadcastWorkload(sim, w);
  sim.runUntil([&](const Simulator& s) {
    return s.now() > 5000 &&
           checkCommitSafety(s.trace(), s.failurePattern())
                   .committedLenAllCorrect >= log.size();
  });
  const auto commit = checkCommitSafety(sim.trace(), fp);
  EXPECT_TRUE(commit.safetyOk())
      << (commit.errors.empty() ? "" : commit.errors[0]);
  EXPECT_GT(commit.indications, 0u);
}

TEST(FailureInjectionTest, ChtExtractionWithCrashedProcess) {
  // The CHT reduction with a faulty process: the extracted leader must be
  // CORRECT (Lemmas 7/8) — even when the crashed process led early on.
  SimConfig cfg;
  cfg.processCount = 3;
  cfg.seed = 5;
  cfg.maxTime = 30000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 5;
  cfg.maxDelay = 15;
  auto fp = FailurePattern::crashesAt(3, {{0, 120}});
  // Omega points at p0 until it crashes, then stabilizes on p1.
  auto omega = std::make_shared<ScriptedFd>(
      [](ProcessId, Time t) {
        FdValue v;
        v.leader = t < 120 ? 0 : 1;
        return v;
      },
      "crash-leader");
  Simulator sim(cfg, fp, omega);
  ChtConfig ccfg;
  ccfg.limits.maxInstance = 4;
  ccfg.limits.probeSteps = 150;
  ccfg.limits.walkSteps = 10;
  ccfg.maxOwnSamples = 20;
  ccfg.extractEvery = 24;
  for (ProcessId p = 0; p < 3; ++p) {
    sim.addProcess(p, std::make_unique<ChtExtractorAutomaton>(omegaEcTarget(), 3,
                                                              ccfg));
  }
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) {
    ProcessId first = kNoProcess;
    for (ProcessId p : s.failurePattern().correctSet()) {
      const auto& ex = static_cast<const ChtExtractorAutomaton&>(s.automaton(p));
      if (ex.currentEstimate() == kNoProcess) return false;
      if (first == kNoProcess) first = ex.currentEstimate();
      if (ex.currentEstimate() != first) return false;
    }
    return s.failurePattern().correct(first);
  }));
  const auto& ex = static_cast<const ChtExtractorAutomaton&>(sim.automaton(1));
  EXPECT_TRUE(fp.correct(ex.currentEstimate()))
      << "the deciding process of a gadget is correct";
}

// Seed sweep of the nastiest combined scenario.
class ChaosSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSweepTest, EtobSpecUnderCombinedChaos) {
  const std::uint64_t seed = GetParam();
  auto cfg = baseConfig(5, seed);
  cfg.maxTime = 60000;
  auto fp = Environments::staggeredCrashes(5, 2, 1000, 600);
  const Time tauOmega = 2800;
  auto omega =
      std::make_shared<OmegaFd>(fp, tauOmega, OmegaPreStabilization::kSplitBrain);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < 5; ++p) {
    sim.addProcess(p, std::make_unique<EtobAutomaton>());
  }
  PartitionSpec d;
  d.start = 500;
  d.width = 700;
  d.affects = [](ProcessId from, ProcessId to) { return (from % 2) != (to % 2); };
  sim.addPartition(d);
  BroadcastWorkload w;
  w.perProcess = 5;
  w.causalChainPerOrigin = true;
  auto log = scheduleBroadcastWorkload(sim, w);
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) {
    return s.now() > tauOmega + 2000 && broadcastConverged(s, log);
  })) << "seed " << seed;
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  EXPECT_TRUE(report.coreOk()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_TRUE(report.causalOrderOk);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweepTest,
                         ::testing::Values(2, 5, 8, 13, 27, 42, 77, 101));

// --- FailurePattern edge cases (the fuzz sampler's boundary inputs) ---------

TEST(FailurePatternEdgeTest, CrashAtTimeZero) {
  auto fp = FailurePattern::crashesAt(3, {{1, 0}});
  EXPECT_TRUE(fp.crashed(1, 0));  // p ∈ F(0): never takes any step
  EXPECT_TRUE(fp.faulty(1));
  EXPECT_EQ(fp.crashTime(1), 0u);
  EXPECT_EQ(fp.aliveAt(0), (std::vector<ProcessId>{0, 2}));
  EXPECT_EQ(fp.lastCrashTime(), 0u);
  EXPECT_EQ(fp.lowestCorrect(), 0u);
}

TEST(FailurePatternEdgeTest, AllButOneCrashed) {
  auto fp = FailurePattern::crashesAt(5, {{0, 10}, {1, 0}, {3, 20}, {4, 30}});
  EXPECT_EQ(fp.correctSet(), (std::vector<ProcessId>{2}));
  EXPECT_EQ(fp.faultySet(), (std::vector<ProcessId>{0, 1, 3, 4}));
  EXPECT_EQ(fp.lowestCorrect(), 2u);
  EXPECT_FALSE(fp.hasCorrectMajority());
  EXPECT_EQ(fp.aliveAt(25), (std::vector<ProcessId>{2, 4}));
}

TEST(FailurePatternEdgeTest, MajorityBoundaryEvenN) {
  // n = 4: 2 correct of 4 is NOT a majority (2*2 == 4), 3 of 4 is.
  auto half = FailurePattern::crashesAt(4, {{2, 100}, {3, 100}});
  EXPECT_FALSE(half.hasCorrectMajority());
  auto oneCrash = FailurePattern::crashesAt(4, {{3, 100}});
  EXPECT_TRUE(oneCrash.hasCorrectMajority());
}

TEST(FailurePatternEdgeTest, MajorityBoundaryOddN) {
  // n = 5: 3 correct of 5 is a majority (3*2 > 5), 2 of 5 is not.
  auto twoCrash = FailurePattern::crashesAt(5, {{3, 100}, {4, 100}});
  EXPECT_TRUE(twoCrash.hasCorrectMajority());
  auto threeCrash = FailurePattern::crashesAt(5, {{2, 100}, {3, 100}, {4, 100}});
  EXPECT_FALSE(threeCrash.hasCorrectMajority());
  // The named environments sit exactly on those boundaries.
  EXPECT_TRUE(Environments::minorityCrash(5, 100).hasCorrectMajority());
  EXPECT_FALSE(Environments::majorityCrash(5, 100).hasCorrectMajority());
  EXPECT_FALSE(Environments::majorityCrash(4, 100).hasCorrectMajority());
}

}  // namespace
}  // namespace wfd
