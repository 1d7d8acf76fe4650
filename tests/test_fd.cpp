// Unit tests: failure detector oracles — each oracle's histories must
// satisfy its abstraction's specification by construction.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/ensure.h"
#include "fd/detectors.h"
#include "fd/robust_fd.h"
#include "sim/failure_pattern.h"

namespace wfd {
namespace {

// --- Omega ------------------------------------------------------------------

TEST(OmegaTest, StabilizesOnSameCorrectLeaderEverywhere) {
  auto fp = FailurePattern::crashesAt(4, {{0, 50}});
  OmegaFd omega(fp, 300, OmegaPreStabilization::kSplitBrain);
  // Eventual leader defaults to lowest correct = p1.
  EXPECT_EQ(omega.eventualLeader(), 1u);
  for (Time t = 300; t < 600; t += 7) {
    for (ProcessId p = 0; p < 4; ++p) {
      EXPECT_EQ(omega.valueAt(p, t).leader, 1u);
    }
  }
}

TEST(OmegaTest, SplitBrainDisagreesBeforeStabilization) {
  auto fp = FailurePattern::noFailures(4);
  OmegaFd omega(fp, 10000, OmegaPreStabilization::kSplitBrain, 97);
  bool disagreed = false;
  for (Time t = 0; t < 500 && !disagreed; t += 13) {
    std::set<ProcessId> leaders;
    for (ProcessId p = 0; p < 4; ++p) leaders.insert(omega.valueAt(p, t).leader);
    disagreed = leaders.size() > 1;
  }
  EXPECT_TRUE(disagreed);
}

TEST(OmegaTest, RotatingAgreesButChurns) {
  auto fp = FailurePattern::noFailures(3);
  OmegaFd omega(fp, 10000, OmegaPreStabilization::kRotating, 50);
  std::set<ProcessId> leadersOverTime;
  for (Time t = 0; t < 400; t += 10) {
    std::set<ProcessId> now;
    for (ProcessId p = 0; p < 3; ++p) now.insert(omega.valueAt(p, t).leader);
    EXPECT_EQ(now.size(), 1u) << "rotating mode must agree at each instant";
    leadersOverTime.insert(*now.begin());
  }
  EXPECT_GT(leadersOverTime.size(), 1u);
}

TEST(OmegaTest, StableModeConstantFromZero) {
  auto fp = FailurePattern::noFailures(3);
  OmegaFd omega(fp, 0, OmegaPreStabilization::kStable);
  for (Time t = 0; t < 100; ++t) {
    for (ProcessId p = 0; p < 3; ++p) {
      EXPECT_EQ(omega.valueAt(p, t).leader, 0u);
    }
  }
}

TEST(OmegaTest, ExplicitLeaderRespected) {
  auto fp = FailurePattern::noFailures(3);
  OmegaFd omega(fp, 0, OmegaPreStabilization::kStable, 97, 2);
  EXPECT_EQ(omega.valueAt(1, 5).leader, 2u);
}

TEST(OmegaTest, FaultyEventualLeaderRejected) {
  auto fp = FailurePattern::crashesAt(3, {{2, 10}});
  EXPECT_THROW(OmegaFd(fp, 0, OmegaPreStabilization::kStable, 97, 2),
               InvariantError);
}

// --- Perfect / eventually perfect -------------------------------------------

TEST(PerfectTest, StrongAccuracyAndCompleteness) {
  auto fp = FailurePattern::crashesAt(3, {{2, 100}});
  PerfectFd p(fp, 10);
  EXPECT_TRUE(p.valueAt(0, 50).suspects.empty());      // nobody crashed
  EXPECT_TRUE(p.valueAt(0, 105).suspects.empty());     // lag not elapsed
  EXPECT_EQ(p.valueAt(0, 110).suspects, (std::vector<ProcessId>{2}));
}

TEST(EventuallyPerfectTest, ExactAfterStabilization) {
  auto fp = FailurePattern::crashesAt(3, {{2, 100}});
  EventuallyPerfectFd fd(fp, 500);
  for (Time t = 500; t < 700; t += 11) {
    for (ProcessId p = 0; p < 3; ++p) {
      EXPECT_EQ(fd.valueAt(p, t).suspects, (std::vector<ProcessId>{2}));
    }
  }
}

TEST(EventuallyPerfectTest, MakesFalseSuspicionsBefore) {
  auto fp = FailurePattern::noFailures(4);
  EventuallyPerfectFd fd(fp, 100000, 7);
  bool falseSuspicion = false;
  for (Time t = 0; t < 4000 && !falseSuspicion; t += 17) {
    for (ProcessId p = 0; p < 4; ++p) {
      falseSuspicion |= !fd.valueAt(p, t).suspects.empty();
    }
  }
  EXPECT_TRUE(falseSuspicion);
}

TEST(EventuallyPerfectTest, AlwaysSuspectsActuallyCrashed) {
  auto fp = FailurePattern::crashesAt(3, {{1, 10}});
  EventuallyPerfectFd fd(fp, 100000);
  for (Time t = 10; t < 300; t += 13) {
    const auto s = fd.valueAt(0, t).suspects;
    EXPECT_TRUE(std::binary_search(s.begin(), s.end(), ProcessId{1}));
  }
}

// --- Scripted / derived ------------------------------------------------------

TEST(ScriptedTest, ReturnsScriptedValues) {
  ScriptedFd fd(
      [](ProcessId p, Time t) {
        FdValue v;
        v.leader = (p + t) % 2;
        return v;
      },
      "test");
  EXPECT_EQ(fd.valueAt(0, 0).leader, 0u);
  EXPECT_EQ(fd.valueAt(1, 0).leader, 1u);
  EXPECT_EQ(fd.name(), "test");
}

TEST(OmegaFromEventuallyPerfectTest, EventuallyAgreesOnLowestAlive) {
  auto fp = FailurePattern::crashesAt(3, {{0, 50}});
  auto inner = std::make_shared<EventuallyPerfectFd>(fp, 200);
  OmegaFromEventuallyPerfect omega(inner, 3);
  for (Time t = 200; t < 400; t += 9) {
    for (ProcessId p = 0; p < 3; ++p) {
      EXPECT_EQ(omega.valueAt(p, t).leader, 1u);  // lowest non-suspected
    }
  }
}

TEST(OmegaFromEventuallyPerfectTest, TrustsLowestUnsuspectedElseSelf) {
  // The inner history suspects nobody at t = 0, {0, 2} at t = 1 and every
  // process at t = 2.
  auto inner = std::make_shared<ScriptedFd>(
      [](ProcessId, Time t) {
        FdValue v;
        if (t == 1) v.suspects = {0, 2};
        if (t == 2) v.suspects = {0, 1, 2};
        return v;
      },
      "scripted-<>P");
  OmegaFromEventuallyPerfect omega(inner, 3);
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(omega.valueAt(p, 0).leader, 0u);
    EXPECT_EQ(omega.valueAt(p, 1).leader, 1u);
    EXPECT_EQ(omega.valueAt(p, 2).leader, p) << "all suspected: trust self";
  }
}

// FailureDetector::epochAt promises that equal epochs at p mean equal
// values at p; the simulator's per-process FD cache serves a stale value
// from any detector that breaks it. Checked tick by tick for every
// shipped oracle, across crashes before and after stabilization.
TEST(EpochContractTest, EqualEpochsMeanEqualValues) {
  constexpr std::size_t n = 5;
  constexpr Time tau = 1000;
  auto fp = FailurePattern::crashesAt(n, {{4, 0}, {2, 300}, {0, 1700}});
  const std::vector<std::pair<Time, Time>> bursts = {{500, 900}, {2000, 2600}};
  AdaptiveHeartbeatFd::Params hb;
  hb.burstWindows = bursts;
  SwimFd::Params swim;
  swim.burstWindows = bursts;
  auto diamondP = std::make_shared<EventuallyPerfectFd>(fp, tau);
  auto heartbeat = std::make_shared<AdaptiveHeartbeatFd>(fp, hb);

  const std::vector<std::pair<std::string, std::shared_ptr<const FailureDetector>>>
      detectors = {
          {"Omega stable",
           std::make_shared<OmegaFd>(fp, tau, OmegaPreStabilization::kStable)},
          {"Omega rotating",
           std::make_shared<OmegaFd>(fp, tau, OmegaPreStabilization::kRotating)},
          {"Omega split-brain",
           std::make_shared<OmegaFd>(fp, tau, OmegaPreStabilization::kSplitBrain)},
          {"P lag 0", std::make_shared<PerfectFd>(fp, 0)},
          {"P lag 37", std::make_shared<PerfectFd>(fp, 37)},
          {"<>P", diamondP},
          {"Omega from <>P", std::make_shared<OmegaFromEventuallyPerfect>(diamondP, n)},
          {"Omega from heartbeat",
           std::make_shared<OmegaFromEventuallyPerfect>(heartbeat, n)},
          {"heartbeat", heartbeat},
          {"SWIM", std::make_shared<SwimFd>(fp, swim)},
      };
  for (const auto& [label, fd] : detectors) {
    for (ProcessId p = 0; p < n; ++p) {
      std::map<std::uint64_t, FdValue> valueOfEpoch;
      for (Time t = 0; t < 4000; ++t) {
        const FdValue v = fd->valueAt(p, t);
        const auto [it, fresh] = valueOfEpoch.try_emplace(fd->epochAt(p, t), v);
        ASSERT_TRUE(fresh || it->second == v)
            << label << ": epoch " << it->first << " maps to two values (p" << p
            << ", t=" << t << ")";
      }
    }
  }
}

// Property sweep: every Omega history satisfies the Omega specification
// (eventually the same correct leader at all correct processes, forever)
// across modes and stabilization times.
class OmegaSpecTest
    : public ::testing::TestWithParam<std::tuple<int, Time>> {};

TEST_P(OmegaSpecTest, HistorySatisfiesOmegaSpec) {
  const auto [modeInt, tau] = GetParam();
  const auto mode = static_cast<OmegaPreStabilization>(modeInt);
  auto fp = FailurePattern::crashesAt(4, {{3, 40}});
  OmegaFd omega(fp, tau, mode);
  const ProcessId leader = omega.eventualLeader();
  EXPECT_TRUE(fp.correct(leader));
  for (Time t = tau; t < tau + 500; t += 23) {
    for (ProcessId p : fp.correctSet()) {
      EXPECT_EQ(omega.valueAt(p, t).leader, leader);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModesAndTaus, OmegaSpecTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values<Time>(0, 100, 1000, 50000)));

}  // namespace
}  // namespace wfd
