// Explorer subsystem tests: sampler admissibility over the whole plan
// space, seed-stable (byte-identical) exploration, the delta-debugging
// shrinker's contract, the plan's network and config lowering, and the
// FailurePattern edge cases the sampler must survive (crash at time 0,
// all-but-one crashed, crash exactly at a partition boundary).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "explore/campaign.h"
#include "explore/explorer.h"
#include "explore/fuzz_plan.h"
#include "scenario/scenario.h"

namespace wfd {
namespace {

constexpr auto& kStacks = kAllAlgoStacks;

// --- Sampler ----------------------------------------------------------------

TEST(FuzzSamplerTest, EverySampledPlanIsAdmissible) {
  for (AlgoStack stack : kStacks) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      const FuzzPlan plan = sampleFuzzPlan(stack, 7, i);
      const auto violations = planAdmissibilityViolations(plan);
      EXPECT_TRUE(violations.empty())
          << algoStackName(stack) << " run " << i << ": "
          << violations.front();
      EXPECT_EQ(plan.maxTime, planHorizon(plan));
      EXPECT_EQ(plan.stack, stack);
    }
  }
}

TEST(FuzzSamplerTest, SamplingIsAFunctionOfSeedAndIndex) {
  for (std::uint64_t i = 0; i < 10; ++i) {
    const FuzzPlan a = sampleFuzzPlan(AlgoStack::kEtob, 3, i);
    const FuzzPlan b = sampleFuzzPlan(AlgoStack::kEtob, 3, i);
    EXPECT_EQ(planFingerprint(a), planFingerprint(b));
  }
  // Different indices and different master seeds explore different plans
  // (fixed property of the derivation, not a probabilistic claim).
  EXPECT_NE(planFingerprint(sampleFuzzPlan(AlgoStack::kEtob, 3, 0)),
            planFingerprint(sampleFuzzPlan(AlgoStack::kEtob, 3, 1)));
  EXPECT_NE(planFingerprint(sampleFuzzPlan(AlgoStack::kEtob, 3, 0)),
            planFingerprint(sampleFuzzPlan(AlgoStack::kEtob, 4, 0)));
  EXPECT_NE(planFingerprint(sampleFuzzPlan(AlgoStack::kEtob, 3, 0)),
            planFingerprint(sampleFuzzPlan(AlgoStack::kGossipLww, 3, 0)));
}

TEST(FuzzSamplerTest, SamplerCoversTheGenomeSpace) {
  // Across a modest window the sampler must exercise every network layer
  // and every omega mode — otherwise the explorer silently stops
  // covering part of the admissible space.
  bool sawPartition = false, sawChaos = false, sawSkew = false,
       sawSlow = false, sawCrash = false, sawRecurring = false;
  std::set<std::string> modes;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const FuzzPlan p = sampleFuzzPlan(AlgoStack::kEtob, 1, i);
    sawPartition |= !p.partitions.empty();
    for (const PlanPartition& part : p.partitions) {
      sawRecurring |= part.period != 0;
    }
    sawChaos |= p.chaos.dupNum > 0;
    sawSkew |= !p.skews.empty();
    sawSlow |= p.slowLink.process != kNoProcess;
    sawCrash |= !p.crashes.empty();
    modes.insert(omegaModeName(p.omegaMode));
  }
  EXPECT_TRUE(sawPartition && sawChaos && sawSkew && sawSlow && sawCrash &&
              sawRecurring);
  EXPECT_EQ(modes.size(), 3u);
}

TEST(FuzzSamplerTest, BigClusterGenomeIsOptIn) {
  // bigClusterMaxN == 0 (and the 3-arg form) must reproduce the legacy
  // small-n plan stream exactly: n stays in [3, 6], no writer cap, and
  // the explicit-0 call is fingerprint-identical — the property the
  // campaign byte-identity CI diff rests on.
  for (AlgoStack stack : kStacks) {
    for (std::uint64_t i = 0; i < 40; ++i) {
      const FuzzPlan legacy = sampleFuzzPlan(stack, 9, i);
      EXPECT_GE(legacy.processCount, 3u);
      EXPECT_LE(legacy.processCount, 6u);
      EXPECT_EQ(legacy.workload.writers, 0u);
      EXPECT_EQ(planFingerprint(legacy),
                planFingerprint(sampleFuzzPlan(stack, 9, i, 0)));
    }
  }
}

TEST(FuzzSamplerTest, BigClusterGenomeSamplesBigAndSmallAdmissiblePlans) {
  // With the genome opted in, the stream must mix deployment-scale
  // plans (with the few-writers workload cap that keeps them cheap)
  // with the legacy small shapes, all admissible, with per-stack caps:
  // 256 for omega-ec, 64 for the O(n^2)-per-round stacks.
  for (AlgoStack stack : kStacks) {
    bool sawBig = false;
    bool sawSmall = false;
    for (std::uint64_t i = 0; i < 80; ++i) {
      const FuzzPlan p = sampleFuzzPlan(stack, 7, i, 256);
      const auto violations = planAdmissibilityViolations(p);
      EXPECT_TRUE(violations.empty())
          << algoStackName(stack) << " run " << i << ": "
          << violations.front();
      EXPECT_LE(p.processCount,
                stack == AlgoStack::kOmegaEc ? 256u : 64u);
      if (p.processCount >= 16) {
        sawBig = true;
        EXPECT_GE(p.workload.writers, 2u) << algoStackName(stack);
        EXPECT_LE(p.workload.writers, 8u) << algoStackName(stack);
        EXPECT_LE(p.workload.perProcess, 3u) << algoStackName(stack);
      } else {
        sawSmall = true;
        EXPECT_EQ(p.workload.writers, 0u);
      }
    }
    EXPECT_TRUE(sawBig) << algoStackName(stack);
    EXPECT_TRUE(sawSmall) << algoStackName(stack);
  }
}

TEST(FuzzSamplerTest, BigClusterPlansRunAndSatisfyTheSpecOracle) {
  // One sampled big plan per price class actually runs its full horizon
  // green: omega-ec at its 256 cap, a broadcast stack at its 64 cap.
  for (AlgoStack stack : {AlgoStack::kOmegaEc, AlgoStack::kEtob}) {
    for (std::uint64_t i = 0;; ++i) {
      ASSERT_LT(i, 100u) << "no big plan in the first 100 samples";
      const FuzzPlan p = sampleFuzzPlan(stack, 7, i, 256);
      if (p.processCount < 16) continue;
      const ScenarioRunResult r = runScenario(planScenario(p), p.simSeed);
      EXPECT_TRUE(r.pass)
          << algoStackName(stack) << " n=" << p.processCount << ": "
          << (r.failures.empty() ? "?" : r.failures.front());
      break;
    }
  }
}

TEST(FuzzSamplerTest, LossGenomeIsOptInAndPrefixPreserving) {
  for (AlgoStack stack : kStacks) {
    for (std::uint64_t i = 0; i < 40; ++i) {
      // Off (and the 4-arg form) reproduces the legacy stream exactly.
      const FuzzPlan legacy = sampleFuzzPlan(stack, 9, i);
      EXPECT_FALSE(legacy.loss.enabled());
      EXPECT_EQ(planFingerprint(legacy),
                planFingerprint(sampleFuzzPlan(stack, 9, i, 0, false)));
      // On: the loss draws come after every legacy draw, so stripping the
      // loss section (and re-deriving the horizon) recovers the legacy
      // plan bit-for-bit — the loss-free prefix is preserved.
      FuzzPlan lossy = sampleFuzzPlan(stack, 9, i, 0, true);
      lossy.loss = PlanLoss{};
      lossy.maxTime = planHorizon(lossy);
      EXPECT_EQ(planFingerprint(lossy), planFingerprint(legacy))
          << algoStackName(stack) << " run " << i;
    }
  }
}

TEST(FuzzSamplerTest, LossGenomeCoversItsLayersAdmissibly) {
  bool sawIid = false, sawBurst = false, sawOneWay = false, sawQuiet = false;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const FuzzPlan p = sampleFuzzPlan(AlgoStack::kEtob, 1, i, 0, true);
    const auto violations = planAdmissibilityViolations(p);
    EXPECT_TRUE(violations.empty()) << "run " << i << ": " << violations.front();
    sawIid |= p.loss.lossNum > 0;
    sawBurst |= p.loss.burstPeriod > 0;
    sawOneWay |= p.loss.oneWayFrom != kNoProcess;
    sawQuiet |= !p.loss.enabled();
    if (p.loss.enabled()) {
      // The sampled horizon must stretch past the loss era plus the
      // retransmission tail, or liveness clauses would be unfair.
      EXPECT_GT(p.maxTime, p.loss.activeUntil);
    }
  }
  EXPECT_TRUE(sawIid && sawBurst && sawOneWay && sawQuiet);
}

TEST(FuzzSamplerTest, LossyPlansRunAndSatisfyTheSpecOracle) {
  // One sampled lossy plan per stack family runs its full horizon green
  // through the retransmission layer (the fuzz-level acceptance check).
  for (AlgoStack stack : {AlgoStack::kEtob, AlgoStack::kOmegaEc}) {
    for (std::uint64_t i = 0;; ++i) {
      ASSERT_LT(i, 100u) << "no lossy plan in the first 100 samples";
      const FuzzPlan p = sampleFuzzPlan(stack, 7, i, 0, true);
      if (!p.loss.enabled()) continue;
      const ScenarioRunResult r = runScenario(planScenario(p), p.simSeed);
      EXPECT_TRUE(r.pass)
          << algoStackName(stack) << " run " << i << ": "
          << (r.failures.empty() ? "?" : r.failures.front());
      EXPECT_NE(r.network.find("loss"), std::string::npos) << r.network;
      break;
    }
  }
}

TEST(FuzzSamplerTest, TobPlansKeepACorrectMajority) {
  for (std::uint64_t i = 0; i < 100; ++i) {
    const FuzzPlan p = sampleFuzzPlan(AlgoStack::kTobViaConsensus, 11, i);
    EXPECT_GT((p.processCount - p.crashes.size()) * 2, p.processCount) << i;
  }
}

// --- Plan lowering: network layers and config data --------------------------

TEST(PlanLoweringTest, ComposesEveryLayerWithPartitionOutermost) {
  FuzzPlan plan;
  plan.processCount = 4;
  plan.partitions.push_back(PlanPartition{500, 200, 1000, 2});
  plan.chaos = PlanChaos{1, 3, 2, 20, kNoProcess};
  plan.skews = {{1, 1}, {2, 1}, {1, 2}, {3, 2}};
  plan.slowLink = PlanSlowLink{0, 3};
  plan.maxTime = planHorizon(plan);
  ASSERT_TRUE(planAdmissibilityViolations(plan).empty());

  // The model layers: chaos over the slow-process base.
  const std::string name = planNetwork(plan)->name();
  EXPECT_EQ(name.find("chaos"), 0u) << name;
  EXPECT_LT(name.find("chaos"), name.find("asymmetric")) << name;
  // Partitions are config data the simulator applies after every model
  // layer: the isolating window cuts exactly the links touching p2.
  const Scenario s = planScenario(plan);
  ASSERT_EQ(s.config.partitions.size(), 1u);
  const PartitionSpec& window = s.config.partitions[0];
  EXPECT_EQ(window.start, 500u);
  EXPECT_EQ(window.width, 200u);
  EXPECT_EQ(window.period, 1000u);
  EXPECT_TRUE(window.cuts(2, 0));
  EXPECT_TRUE(window.cuts(1, 2));
  EXPECT_FALSE(window.cuts(0, 1));
  // Skew scales the lambda period of p1 by 2/1 and p2 by 1/2.
  EXPECT_EQ(lambdaStepPeriod(s.config, 1), 20u);
  EXPECT_EQ(lambdaStepPeriod(s.config, 2), 5u);
}

TEST(PlanLoweringTest, QuietGenomeIsPlainUniformDelay) {
  FuzzPlan plan;
  plan.maxTime = planHorizon(plan);
  EXPECT_EQ(planNetwork(plan)->name().find("uniform-delay"), 0u)
      << planNetwork(plan)->name();
  const Scenario s = planScenario(plan);
  EXPECT_TRUE(s.config.partitions.empty());
  EXPECT_TRUE(s.config.clockSkew.empty());
}

// --- Explorer determinism (the seed-stability satellite) --------------------

/// A one-generation campaign: exactly the sampled plan stream.
CampaignOptions sampledStream(AlgoStack stack, std::uint64_t runs,
                              std::uint64_t seed) {
  CampaignOptions options;
  options.stack = stack;
  options.runs = runs;
  options.seed = seed;
  options.generations = 1;
  return options;
}

std::vector<std::string> runLines(const CampaignReport& report) {
  std::vector<std::string> lines;
  for (const CampaignRunRecord& rec : report.runs) {
    lines.push_back(campaignRunJsonLine(rec));
  }
  return lines;
}

TEST(ExplorerTest, SameSeedSameRunsByteForByte) {
  for (AlgoStack stack : {AlgoStack::kEtob, AlgoStack::kOmegaEc}) {
    const CampaignOptions options = sampledStream(stack, 10, 21);
    const std::vector<std::string> a = runLines(runCampaign(options));
    const std::vector<std::string> b = runLines(runCampaign(options));
    ASSERT_EQ(a.size(), 10u);
    EXPECT_EQ(a, b);
  }
}

TEST(ExplorerTest, SpecOracleHoldsOnASampledWindow) {
  for (AlgoStack stack : kStacks) {
    const CampaignReport report = runCampaign(sampledStream(stack, 8, 2024));
    EXPECT_EQ(report.runs.size(), 8u);
    EXPECT_TRUE(report.violations.empty()) << algoStackName(stack);
  }
}

TEST(ExplorerTest, TimeBudgetOnlyTruncatesTheSequence) {
  const CampaignOptions options = sampledStream(AlgoStack::kEtob, 6, 5);
  const std::vector<std::string> full = runLines(runCampaign(options));
  // A keepGoing() that stops after 3 run polls yields exactly the prefix.
  std::uint64_t budget = 3;
  const std::vector<std::string> truncated = runLines(
      runCampaign(options, [&budget]() { return budget-- > 0; }));
  ASSERT_EQ(truncated.size(), 3u);
  EXPECT_TRUE(std::equal(truncated.begin(), truncated.end(), full.begin()));
}

// --- Shrinker ---------------------------------------------------------------

TEST(ShrinkerTest, StrictOracleWitnessShrinksToItsEssence) {
  // Find the first strict-TOB violation in a short window and shrink it:
  // the result must still violate strong TOB, be admissible, and be no
  // larger than the original in every dimension the passes reduce.
  CampaignOptions options = sampledStream(AlgoStack::kEtob, 12, 42);
  options.oracle = FuzzOracle::kStrictTob;
  const CampaignReport report = runCampaign(options);
  ASSERT_FALSE(report.violations.empty())
      << "pre-stabilization windows must violate strong TOB somewhere";
  const CampaignViolation& v = report.violations.front();

  EXPECT_FALSE(v.shrunken.result.pass);
  const auto keys = failureKeys(v.shrunken.result);
  EXPECT_NE(std::find(keys.begin(), keys.end(), "broadcast: strong-tob"),
            keys.end());
  EXPECT_TRUE(planAdmissibilityViolations(v.shrunken.plan).empty());
  EXPECT_LE(v.shrunken.plan.processCount, v.plan.processCount);
  EXPECT_LE(v.shrunken.plan.crashes.size(), v.plan.crashes.size());
  EXPECT_LE(v.shrunken.plan.workload.perProcess, v.plan.workload.perProcess);
  EXPECT_LE(v.shrunken.plan.maxTime, v.plan.maxTime);
  EXPECT_GT(v.shrunken.accepted, 0u);  // something actually shrank

  // Strong TOB only breaks through pre-stabilization disagreement, so
  // the essential gene — a nonzero tau_Omega — must survive shrinking.
  EXPECT_GT(v.shrunken.plan.tauOmega, 0u);
  EXPECT_NE(v.shrunken.plan.omegaMode, OmegaPreStabilization::kStable);
}

TEST(ShrinkerTest, ShrinkingIsDeterministic) {
  CampaignOptions options = sampledStream(AlgoStack::kEtob, 12, 42);
  options.oracle = FuzzOracle::kStrictTob;
  options.shrink = false;  // find without shrinking, shrink explicitly
  const CampaignReport report = runCampaign(options);
  ASSERT_FALSE(report.violations.empty());
  const FuzzPlan& failing = report.violations.front().plan;
  const ShrinkResult a = shrinkFuzzPlan(failing, FuzzOracle::kStrictTob);
  const ShrinkResult b = shrinkFuzzPlan(failing, FuzzOracle::kStrictTob);
  EXPECT_EQ(planFingerprint(a.plan), planFingerprint(b.plan));
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.accepted, b.accepted);
}

// --- FailurePattern edge cases under the explorer ---------------------------

FuzzPlan quietEtobPlan(std::size_t n) {
  FuzzPlan plan;
  plan.stack = AlgoStack::kEtob;
  plan.processCount = n;
  plan.simSeed = 17;
  plan.tauOmega = 600;
  plan.omegaMode = OmegaPreStabilization::kSplitBrain;
  plan.workload.perProcess = 3;
  return plan;
}

TEST(ExploreEdgeCaseTest, CrashAtTimeZeroIsAdmissibleAndPasses) {
  FuzzPlan plan = quietEtobPlan(4);
  plan.crashes.push_back(PlanCrash{3, 0});  // never takes a single step
  plan.maxTime = planHorizon(plan);
  ASSERT_TRUE(planAdmissibilityViolations(plan).empty());
  const ScenarioRunResult r = runFuzzPlan(plan, FuzzOracle::kSpec);
  EXPECT_TRUE(r.pass) << (r.failures.empty() ? "?" : r.failures.front());

  // The crashed-at-0 process must have taken no steps at all.
  ScenarioInstance inst = instantiateScenario(planScenario(plan), plan.simSeed);
  inst.sim->run();
  EXPECT_EQ(inst.sim->trace().stepsTaken(3), 0u);
}

TEST(ExploreEdgeCaseTest, AllButOneCrashedStillConvergesForTheSurvivor) {
  FuzzPlan plan = quietEtobPlan(4);
  plan.crashes = {PlanCrash{0, 400}, PlanCrash{1, 0}, PlanCrash{2, 800}};
  plan.maxTime = planHorizon(plan);
  ASSERT_TRUE(planAdmissibilityViolations(plan).empty());
  const ScenarioRunResult r = runFuzzPlan(plan, FuzzOracle::kSpec);
  EXPECT_TRUE(r.pass) << (r.failures.empty() ? "?" : r.failures.front());
}

TEST(ExploreEdgeCaseTest, CrashExactlyAtPartitionBoundaries) {
  // The victim crashes exactly when its isolation window starts (first
  // case) and exactly when the window heals (second case): both runs
  // must stay admissible and pass the spec oracle under the lowered
  // plan.
  for (Time crashAt : {Time{900}, Time{900 + 300}}) {
    FuzzPlan plan = quietEtobPlan(5);
    plan.partitions.push_back(PlanPartition{900, 300, 0, 4});
    plan.crashes.push_back(PlanCrash{4, crashAt});
    plan.maxTime = planHorizon(plan);
    ASSERT_TRUE(planAdmissibilityViolations(plan).empty());
    const ScenarioRunResult r = runFuzzPlan(plan, FuzzOracle::kSpec);
    EXPECT_TRUE(r.pass) << "crashAt=" << crashAt << ": "
                        << (r.failures.empty() ? "?" : r.failures.front());
  }
}

TEST(ExploreEdgeCaseTest, FailureKeysStripDetailSuffixes) {
  ScenarioRunResult r;
  r.failures = {"broadcast: strong-tob (tau-hat=1234)",
                "broadcast: strong-tob (tau-hat=99)", "ec: agreement"};
  const std::vector<std::string> keys = failureKeys(r);
  EXPECT_EQ(keys,
            (std::vector<std::string>{"broadcast: strong-tob", "ec: agreement"}));
}

}  // namespace
}  // namespace wfd
