// Campaign subsystem tests: byte-identity of the report across thread
// counts (the property wfd_explore --jobs rests on), coverage-map
// order-independence, the mutator's admissibility/fairness contract, the
// coverage-guided scheduler's determinism, budget cuts that keep the same
// runs at every thread count, and sorted corpus-directory listing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "explore/campaign.h"
#include "explore/explorer.h"
#include "explore/fuzz_plan.h"
#include "explore/plan_codec.h"

namespace wfd {
namespace {

/// Flattens a campaign report to the exact bytes wfd_explore would print
/// (run lines + shrunken witnesses + coverage line) — the comparison the
/// "--jobs N is byte-identical" acceptance criterion makes.
std::string reportBytes(AlgoStack stack, const CampaignReport& report) {
  std::string out;
  for (const CampaignRunRecord& rec : report.runs) {
    out += campaignRunJsonLine(rec) + "\n";
  }
  for (const CampaignViolation& v : report.violations) {
    out += std::to_string(v.generation) + ":" + std::to_string(v.index) + ":" +
           encodeFuzzPlan(v.shrunken.plan).dump() + ":" +
           std::to_string(v.shrunken.attempts) + ":" +
           std::to_string(v.shrunken.accepted) + "\n";
  }
  out += campaignCoverageJsonLine(stack, report) + "\n";
  return out;
}

// --- Determinism across thread counts ---------------------------------------

TEST(CampaignTest, ReportIsByteIdenticalAcrossJobs) {
  CampaignOptions options;
  options.stack = AlgoStack::kEtob;
  options.runs = 12;
  options.seed = 5;
  options.generations = 2;
  options.jobs = 1;
  const CampaignReport base = runCampaign(options);
  const std::string baseBytes = reportBytes(options.stack, base);
  EXPECT_GT(base.runs.size(), options.runs);  // mutations actually ran

  for (unsigned jobs : {2u, 8u}) {
    options.jobs = jobs;
    const CampaignReport r = runCampaign(options);
    EXPECT_EQ(reportBytes(options.stack, r), baseBytes) << "jobs=" << jobs;
  }
}

TEST(CampaignTest, BigClusterCampaignIsByteIdenticalAcrossJobs) {
  // The big-n genome rides the same determinism contract: with
  // bigClusterMaxN set, generation 0 mixes deployment-scale plans into
  // the stream and the report must still be a pure function of the
  // options for any thread count (the CI --jobs 4 vs --jobs 1 diff).
  CampaignOptions options;
  options.stack = AlgoStack::kOmegaEc;  // cheap at big n
  options.runs = 10;
  options.seed = 5;
  options.generations = 2;
  options.jobs = 1;
  options.bigClusterMaxN = 64;
  const CampaignReport base = runCampaign(options);
  const std::string baseBytes = reportBytes(options.stack, base);

  bool sawBig = false;
  for (const CampaignRunRecord& rec : base.runs) {
    sawBig |= rec.plan.processCount >= 16;
  }
  EXPECT_TRUE(sawBig) << "window never scheduled a big plan";

  options.jobs = 4;
  const CampaignReport r = runCampaign(options);
  EXPECT_EQ(reportBytes(options.stack, r), baseBytes);
}

TEST(CampaignTest, ViolationsAndCorpusEntriesIdenticalAcrossJobs) {
  // strict-tob on the eTOB stack violates by design pre-stabilization —
  // the jobs sweep must agree on every witness AND on the exit-status
  // input (the violation count), not just on passing runs.
  CampaignOptions options;
  options.stack = AlgoStack::kEtob;
  options.runs = 10;
  options.seed = 2;
  options.generations = 2;
  options.oracle = FuzzOracle::kStrictTob;
  options.maxShrinkAttempts = 60;
  options.jobs = 1;
  const CampaignReport base = runCampaign(options);
  ASSERT_FALSE(base.violations.empty());

  std::vector<std::string> baseEntries;
  for (const CampaignViolation& v : base.violations) {
    baseEntries.push_back(
        encodeCorpusEntry(
            makeCorpusEntry("e", "t", v.shrunken.plan, options.oracle,
                            &v.shrunken.result))
            .dump());
  }

  options.jobs = 8;
  const CampaignReport threaded = runCampaign(options);
  ASSERT_EQ(threaded.violations.size(), base.violations.size());
  for (std::size_t i = 0; i < base.violations.size(); ++i) {
    const CampaignViolation& v = threaded.violations[i];
    EXPECT_EQ(encodeCorpusEntry(
                  makeCorpusEntry("e", "t", v.shrunken.plan, options.oracle,
                                  &v.shrunken.result))
                  .dump(),
              baseEntries[i])
        << "violation " << i;
  }
}

TEST(CampaignTest, GenerationZeroIsTheSampledStream) {
  // Generation 0 must be exactly the sampler's plan stream for the same
  // (stack, seed): the campaign extends sampling with mutations, it does
  // not fork a second sampling scheme.
  CampaignOptions options;
  options.stack = AlgoStack::kGossipLww;
  options.runs = 8;
  options.seed = 11;
  options.generations = 1;
  options.shrink = false;
  const CampaignReport report = runCampaign(options);
  ASSERT_EQ(report.runs.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(planFingerprint(report.runs[i].plan),
              planFingerprint(sampleFuzzPlan(options.stack, options.seed, i)));
  }
}

// --- Coverage map ------------------------------------------------------------

TEST(CoverageMapTest, AccumulationIsOrderIndependent) {
  std::vector<std::vector<std::string>> signatures = {
      {"a", "b"}, {"b", "c"}, {"a"}, {"c", "d", "e"}, {"b"}};

  CoverageMap forward;
  for (const auto& s : signatures) forward.addSignature(s);

  CoverageMap backward;
  for (auto it = signatures.rbegin(); it != signatures.rend(); ++it) {
    backward.addSignature(*it);
  }

  EXPECT_EQ(backward.toJson().dump(), forward.toJson().dump());
  EXPECT_EQ(forward.count("b"), 3u);
  EXPECT_EQ(forward.count("e"), 1u);
  EXPECT_EQ(forward.count("missing"), 0u);
  EXPECT_EQ(forward.distinctFeatures(), 5u);
  EXPECT_EQ(forward.totalHits(), 9u);
}

TEST(CoverageMapTest, RarityIsTheMinimumFeatureCount) {
  CoverageMap map;
  map.add("common", 10);
  map.add("rare", 1);
  EXPECT_EQ(map.rarity({"common"}), 10u);
  EXPECT_EQ(map.rarity({"common", "rare"}), 1u);
  EXPECT_EQ(map.rarity({"common", "never-seen"}), 0u);
  EXPECT_EQ(map.rarity({}), std::numeric_limits<std::uint64_t>::max());
}

TEST(CoverageMapTest, SignatureIsDeterministicSortedAndDeduplicated) {
  const FuzzPlan plan = sampleFuzzPlan(AlgoStack::kEtob, 1, 0);
  const ScenarioRunResult result = runFuzzPlan(plan, FuzzOracle::kSpec);
  const std::vector<std::string> a = coverageSignature(plan, result);
  const std::vector<std::string> b = coverageSignature(plan, result);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(std::adjacent_find(a.begin(), a.end()), a.end());
}

// --- Mutator -----------------------------------------------------------------

TEST(MutateFuzzPlanTest, MutantsAreAdmissibleAndFairnessPreserving) {
  for (AlgoStack stack : kAllAlgoStacks) {
    for (std::uint64_t i = 0; i < 30; ++i) {
      const FuzzPlan base = sampleFuzzPlan(stack, 3, i);
      const std::optional<FuzzPlan> mutated = mutateFuzzPlan(base, i * 977 + 1);
      if (!mutated) continue;
      const auto violations = planAdmissibilityViolations(*mutated);
      EXPECT_TRUE(violations.empty())
          << algoStackName(stack) << " seed " << i << ": "
          << violations.front();
      EXPECT_EQ(mutated->maxTime, planHorizon(*mutated));
      // The omega-ec tau cap is sampler FAIRNESS, not admissibility:
      // growing tau_Omega would make liveness clauses unfair assertions
      // without tripping the validator, so the mutator must never do it.
      EXPECT_LE(mutated->tauOmega, base.tauOmega)
          << algoStackName(stack) << " seed " << i;
      EXPECT_EQ(mutated->stack, base.stack);
    }
  }
}

TEST(MutateFuzzPlanTest, MutationIsAFunctionOfPlanAndSeed) {
  const FuzzPlan base = sampleFuzzPlan(AlgoStack::kEtob, 1, 3);
  const std::optional<FuzzPlan> a = mutateFuzzPlan(base, 42);
  const std::optional<FuzzPlan> b = mutateFuzzPlan(base, 42);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(planFingerprint(*a), planFingerprint(*b));
  EXPECT_NE(planFingerprint(*a), planFingerprint(base));
}

// --- Corpus directory listing ------------------------------------------------

TEST(ListCorpusFilesTest, ListsSortedJsonOnly) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "wfd_list_corpus_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // Created in an order that differs from sorted order on purpose;
  // readdir order additionally differs per filesystem, which is exactly
  // what the sort must erase.
  for (const char* name : {"zeta.json", "alpha.json", "mid.json",
                           "README.md", "notes.txt"}) {
    std::ofstream((dir / name).string()) << "{}\n";
  }
  std::filesystem::create_directories(dir / "sub.json");  // dir, not file

  std::string error;
  const auto files = listCorpusFiles(dir.string(), &error);
  ASSERT_TRUE(files.has_value()) << error;
  ASSERT_EQ(files->size(), 3u);
  EXPECT_EQ(std::filesystem::path((*files)[0]).filename(), "alpha.json");
  EXPECT_EQ(std::filesystem::path((*files)[1]).filename(), "mid.json");
  EXPECT_EQ(std::filesystem::path((*files)[2]).filename(), "zeta.json");
  std::filesystem::remove_all(dir);
}

TEST(ListCorpusFilesTest, FailsOnMissingDirectory) {
  std::string error;
  EXPECT_FALSE(listCorpusFiles("/nonexistent/wfd-corpus", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ListCorpusFilesTest, CommittedCorpusListsEveryEntry) {
  // The committed corpus directory must be listable (this is what the
  // corpus_replay_dir ctest target and --replay <dir> walk). ctest runs
  // from the build dir; direct invocation from the repo root.
  std::string error;
  auto files = listCorpusFiles("tests/corpus", &error);
  if (!files) files = listCorpusFiles("../tests/corpus", &error);
  if (!files) GTEST_SKIP() << "corpus dir not found: " << error;
  EXPECT_TRUE(std::is_sorted(files->begin(), files->end()));
  for (const std::string& path : *files) {
    std::string loadError;
    EXPECT_TRUE(loadCorpusFile(path, &loadError).has_value())
        << path << ": " << loadError;
  }
}

// --- Scheduler ---------------------------------------------------------------

TEST(CampaignTest, LaterGenerationsMutateRatherThanResample) {
  CampaignOptions options;
  options.stack = AlgoStack::kEtob;
  options.runs = 12;
  options.seed = 9;
  options.generations = 3;
  options.mutationsPerGeneration = 6;
  options.shrink = false;
  const CampaignReport report = runCampaign(options);
  ASSERT_EQ(report.runs.size(), 12u + 6u + 6u);

  // Generation > 0 plans must not all be fresh samples: the scheduler's
  // whole point is re-queuing mutations of rare-coverage parents. (A
  // mutation that lands inadmissible falls back to the sample stream, so
  // "some mutated" — not "all" — is the deterministic guarantee.)
  std::uint64_t mutatedCount = 0;
  std::uint64_t sampleStreamIndex = options.runs;
  for (const CampaignRunRecord& rec : report.runs) {
    if (rec.generation == 0) continue;
    if (planFingerprint(rec.plan) !=
        planFingerprint(
            sampleFuzzPlan(options.stack, options.seed, sampleStreamIndex))) {
      ++mutatedCount;
    } else {
      ++sampleStreamIndex;
    }
  }
  EXPECT_GT(mutatedCount, 0u);
}

TEST(CampaignTest, TruncationStopsAtGenerationBoundaries) {
  CampaignOptions options;
  options.stack = AlgoStack::kEtob;
  options.runs = 6;
  options.seed = 4;
  options.generations = 4;
  options.mutationsPerGeneration = 3;
  options.shrink = false;

  // Allow exactly one generation: one poll per run, so the keepGoing
  // budget refuses generation 1's first claim.
  std::uint64_t polls = 0;
  const CampaignReport report = runCampaign(
      options, [&]() { return ++polls <= options.runs; });
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.runs.size(), 6u);
  // The runs that DID execute are the same deterministic prefix a full
  // campaign produces.
  const CampaignReport full = runCampaign(options);
  ASSERT_GE(full.runs.size(), report.runs.size());
  for (std::size_t i = 0; i < report.runs.size(); ++i) {
    EXPECT_EQ(campaignRunJsonLine(report.runs[i]),
              campaignRunJsonLine(full.runs[i]));
  }
}

TEST(CampaignTest, TimeBudgetTruncatesInsideAGeneration) {
  CampaignOptions options;
  options.stack = AlgoStack::kEtob;
  options.runs = 8;
  options.seed = 6;
  options.shrink = false;
  std::vector<std::string> full;
  for (const CampaignRunRecord& rec : runCampaign(options).runs) {
    full.push_back(campaignRunJsonLine(rec));
  }

  // One poll per claim: 3 admitted polls keep exactly the first 3 runs.
  std::uint64_t polls = 0;
  const CampaignReport sequential =
      runCampaign(options, [&polls]() { return ++polls <= 3; });
  EXPECT_TRUE(sequential.truncated);
  ASSERT_EQ(sequential.runs.size(), 3u);
  std::vector<std::string> sequentialLines;
  for (std::size_t i = 0; i < 3; ++i) {
    sequentialLines.push_back(campaignRunJsonLine(sequential.runs[i]));
    EXPECT_EQ(sequentialLines[i], full[i]);
  }

  // jobs = 4: claims poll under the claim lock, so the same plain
  // counter admits the same 3 claims, and every claimed run is kept.
  options.jobs = 4;
  polls = 0;
  const CampaignReport threaded =
      runCampaign(options, [&polls]() { return ++polls <= 3; });
  EXPECT_TRUE(threaded.truncated);
  std::vector<std::string> threadedLines;
  for (const CampaignRunRecord& rec : threaded.runs) {
    threadedLines.push_back(campaignRunJsonLine(rec));
  }
  EXPECT_EQ(threadedLines, sequentialLines);
}

}  // namespace
}  // namespace wfd
