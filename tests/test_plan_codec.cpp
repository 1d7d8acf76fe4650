// JSON library + FuzzPlan/corpus codec tests: canonical round-trips,
// malformed-input rejection, and the admissibility re-validation that
// stops a hand-edited corpus file from smuggling an inadmissible run in.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "common/json.h"
#include "explore/explorer.h"
#include "explore/fuzz_plan.h"
#include "explore/plan_codec.h"

namespace wfd {
namespace {

// --- Json ------------------------------------------------------------------

TEST(JsonTest, CanonicalDumpSortsKeysAndRoundTrips) {
  Json obj = Json::object();
  obj.set("zeta", Json::number(1));
  obj.set("alpha", Json::boolean(true));
  Json arr = Json::array();
  arr.push(Json::str("a\"b\\c\nd"));
  arr.push(Json::null());
  obj.set("mid", std::move(arr));
  const std::string dump = obj.dump();
  EXPECT_EQ(dump, "{\"alpha\":true,\"mid\":[\"a\\\"b\\\\c\\nd\",null],\"zeta\":1}");

  std::string error;
  std::optional<Json> parsed = Json::parse(dump, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->dump(), dump);  // canonical fixed point
}

TEST(JsonTest, ParsesWhitespaceAndControlEscapes) {
  std::optional<Json> v = Json::parse("  { \"k\" : [ 1 , 2 ] , \"s\" : \"\\u0007x\" } ");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("k")->items()[1].asUInt(), 2u);
  EXPECT_EQ(v->find("s")->asString(), std::string("\ax"));
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "1.5", "-3", "1e9",
        "\"unterminated", "\"bad\\q\"", "[1] trailing",
        "18446744073709551616" /* u64 overflow */,
        "\"\\uD83D\"" /* beyond the \\u00XX subset */,
        "{\"a\":1,\"a\":2}" /* duplicate key: stale-line hand edit */}) {
    std::string error;
    EXPECT_FALSE(Json::parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonTest, U64BoundaryValuesSurvive) {
  const std::string dump =
      Json::parse("18446744073709551615")->dump();  // UINT64_MAX
  EXPECT_EQ(dump, "18446744073709551615");
}

// --- FuzzPlan codec ---------------------------------------------------------

TEST(PlanCodecTest, SampledPlansRoundTripCanonically) {
  for (AlgoStack stack : kAllAlgoStacks) {
    for (std::uint64_t i = 0; i < 20; ++i) {
      const FuzzPlan plan = sampleFuzzPlan(stack, 99, i);
      const std::string dump = encodeFuzzPlan(plan).dump();
      std::string error;
      std::optional<Json> parsed = Json::parse(dump, &error);
      ASSERT_TRUE(parsed.has_value()) << error;
      std::optional<FuzzPlan> decoded = decodeFuzzPlan(*parsed, &error);
      ASSERT_TRUE(decoded.has_value()) << error;
      EXPECT_EQ(encodeFuzzPlan(*decoded).dump(), dump);
      EXPECT_EQ(planFingerprint(*decoded), planFingerprint(plan));
    }
  }
}

TEST(PlanCodecTest, BigClusterPlansRoundTripAndLegacyEncodingIsStable) {
  // Big-genome plans (writer-capped workloads, n up to 256) round trip
  // through the canonical encoding; legacy all-write plans must NOT
  // grow a "writers" key — their encodings (and thus fingerprints and
  // the committed corpus) predate the field.
  bool sawWriters = false;
  for (std::uint64_t i = 0; i < 40 && !sawWriters; ++i) {
    const FuzzPlan plan = sampleFuzzPlan(AlgoStack::kOmegaEc, 99, i, 256);
    const std::string dump = encodeFuzzPlan(plan).dump();
    std::string error;
    std::optional<FuzzPlan> decoded =
        decodeFuzzPlan(*Json::parse(dump, &error), &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    EXPECT_EQ(encodeFuzzPlan(*decoded).dump(), dump);
    EXPECT_EQ(planFingerprint(*decoded), planFingerprint(plan));
    if (plan.workload.writers > 0) {
      sawWriters = true;
      EXPECT_NE(dump.find("\"writers\""), std::string::npos);
    }
  }
  EXPECT_TRUE(sawWriters) << "window never sampled a big plan";

  const FuzzPlan legacy = sampleFuzzPlan(AlgoStack::kEtob, 99, 0);
  EXPECT_EQ(encodeFuzzPlan(legacy).dump().find("\"writers\""),
            std::string::npos);
}

TEST(PlanCodecTest, RejectsMoreWritersThanProcesses) {
  FuzzPlan plan = sampleFuzzPlan(AlgoStack::kEtob, 1, 0);
  plan.workload.writers = plan.processCount + 1;
  std::string error;
  EXPECT_FALSE(decodeFuzzPlan(encodeFuzzPlan(plan), &error).has_value());
  EXPECT_NE(error.find("writers"), std::string::npos);
}

TEST(PlanCodecTest, RejectsUnknownSchemaStackAndMode) {
  const FuzzPlan plan = sampleFuzzPlan(AlgoStack::kEtob, 1, 0);
  std::string error;

  Json wrongSchema = encodeFuzzPlan(plan);
  wrongSchema.set("schema", Json::str("wfd-fuzz-plan-v999"));
  EXPECT_FALSE(decodeFuzzPlan(wrongSchema, &error).has_value());
  EXPECT_NE(error.find("schema"), std::string::npos);

  Json wrongStack = encodeFuzzPlan(plan);
  wrongStack.set("stack", Json::str("raft"));
  EXPECT_FALSE(decodeFuzzPlan(wrongStack, &error).has_value());

  Json wrongMode = encodeFuzzPlan(plan);
  wrongMode.set("omega_mode", Json::str("psychic"));
  EXPECT_FALSE(decodeFuzzPlan(wrongMode, &error).has_value());
}

TEST(PlanCodecTest, RejectsInadmissiblePlans) {
  // A structurally valid JSON plan whose semantics violate the
  // admissibility contract must not decode.
  FuzzPlan plan = sampleFuzzPlan(AlgoStack::kEtob, 1, 0);
  plan.minDelay = plan.maxDelay + 1;  // delays inverted
  std::string error;
  EXPECT_FALSE(decodeFuzzPlan(encodeFuzzPlan(plan), &error).has_value());
  EXPECT_NE(error.find("inadmissible"), std::string::npos);

  plan = sampleFuzzPlan(AlgoStack::kEtob, 1, 0);
  plan.crashes.clear();
  for (ProcessId p = 0; p < plan.processCount; ++p) {
    plan.crashes.push_back(PlanCrash{p, 100});  // nobody stays correct
  }
  EXPECT_FALSE(decodeFuzzPlan(encodeFuzzPlan(plan), &error).has_value());

  plan = sampleFuzzPlan(AlgoStack::kEtob, 1, 0);
  plan.maxTime = 10;  // below the fairness horizon
  EXPECT_FALSE(decodeFuzzPlan(encodeFuzzPlan(plan), &error).has_value());
}

TEST(PlanCodecTest, UnknownFieldsAreLoudErrors) {
  // A misspelled section must be a decode error, not a silently dropped
  // fault layer (a hand-written "slowlink" plan would otherwise commit a
  // strictly weaker regression than its author intended).
  const FuzzPlan plan = sampleFuzzPlan(AlgoStack::kEtob, 1, 0);
  std::string error;

  Json typoTop = encodeFuzzPlan(plan);
  Json slow = Json::object();
  slow.set("process", Json::number(0));
  slow.set("factor", Json::number(3));
  typoTop.set("slowlink", std::move(slow));  // should be "slow_link"
  EXPECT_FALSE(decodeFuzzPlan(typoTop, &error).has_value());
  EXPECT_NE(error.find("unknown field 'slowlink'"), std::string::npos) << error;

  Json typoNested = encodeFuzzPlan(plan);
  Json workload = *typoNested.find("workload");
  workload.set("per_proces", Json::number(3));  // typo inside a section
  typoNested.set("workload", std::move(workload));
  EXPECT_FALSE(decodeFuzzPlan(typoNested, &error).has_value());
  EXPECT_NE(error.find("unknown field"), std::string::npos) << error;
}

TEST(PlanCodecTest, PartitionThatNeverHealsIsInadmissible) {
  FuzzPlan plan = sampleFuzzPlan(AlgoStack::kEtob, 1, 0);
  plan.partitions.clear();
  plan.partitions.push_back(PlanPartition{100, 500, 400, kNoProcess});
  plan.maxTime = planHorizon(plan);
  std::string error;
  EXPECT_FALSE(decodeFuzzPlan(encodeFuzzPlan(plan), &error).has_value());
  EXPECT_NE(error.find("heal"), std::string::npos);
}

TEST(PlanCodecTest, LossyPlansRoundTripAndLegacyEncodingHasNoLossKey) {
  // Loss-genome plans round trip canonically; quiet plans must NOT grow
  // a "loss" section — legacy encodings (and the committed corpus)
  // predate the genome and stay byte-identical.
  bool sawLoss = false;
  for (std::uint64_t i = 0; i < 60 && !sawLoss; ++i) {
    const FuzzPlan plan =
        sampleFuzzPlan(AlgoStack::kEtob, 99, i, 0, /*lossGenome=*/true);
    const std::string dump = encodeFuzzPlan(plan).dump();
    std::string error;
    std::optional<FuzzPlan> decoded =
        decodeFuzzPlan(*Json::parse(dump, &error), &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    EXPECT_EQ(encodeFuzzPlan(*decoded).dump(), dump);
    EXPECT_EQ(planFingerprint(*decoded), planFingerprint(plan));
    if (plan.loss.enabled()) {
      sawLoss = true;
      EXPECT_NE(dump.find("\"loss\""), std::string::npos);
    }
  }
  EXPECT_TRUE(sawLoss) << "window never sampled a lossy plan";

  const FuzzPlan legacy = sampleFuzzPlan(AlgoStack::kEtob, 99, 0);
  EXPECT_EQ(encodeFuzzPlan(legacy).dump().find("\"loss\""), std::string::npos);
}

TEST(PlanCodecTest, RejectsUnknownKeyInsideLossSection) {
  FuzzPlan plan = sampleFuzzPlan(AlgoStack::kEtob, 1, 0);
  plan.loss.lossNum = 1;
  plan.loss.lossDen = 8;
  plan.loss.activeUntil = 5000;
  plan.maxTime = planHorizon(plan);
  Json typo = encodeFuzzPlan(plan);
  Json loss = *typo.find("loss");
  loss.set("burst_lenght", Json::number(100));
  typo.set("loss", std::move(loss));
  std::string error;
  EXPECT_FALSE(decodeFuzzPlan(typo, &error).has_value());
  EXPECT_NE(error.find("unknown field"), std::string::npos) << error;
}

TEST(PlanCodecTest, RejectsInadmissibleLossPlans) {
  // Starving rate: more than a quarter of copies dropped breaks the
  // fair-lossy assumption the stubborn layer's liveness rests on.
  FuzzPlan plan = sampleFuzzPlan(AlgoStack::kEtob, 1, 0);
  plan.loss.lossNum = 1;
  plan.loss.lossDen = 3;
  plan.loss.activeUntil = 5000;
  plan.maxTime = planHorizon(plan);
  std::string error;
  EXPECT_FALSE(decodeFuzzPlan(encodeFuzzPlan(plan), &error).has_value());
  EXPECT_NE(error.find("fair-lossy"), std::string::npos) << error;

  // A loss layer that never goes quiet is inadmissible in fuzz plans.
  plan = sampleFuzzPlan(AlgoStack::kEtob, 1, 0);
  plan.loss.lossNum = 1;
  plan.loss.lossDen = 8;
  plan.loss.activeUntil = 0;
  plan.maxTime = planHorizon(plan);
  EXPECT_FALSE(decodeFuzzPlan(encodeFuzzPlan(plan), &error).has_value());
  EXPECT_NE(error.find("quiet"), std::string::npos) << error;

  // A recurring one-way cut with no healing gap starves the link.
  plan = sampleFuzzPlan(AlgoStack::kEtob, 1, 0);
  plan.loss.oneWayFrom = 0;
  plan.loss.oneWayStart = 200;
  plan.loss.oneWayWidth = 400;
  plan.loss.oneWayPeriod = 400;
  plan.maxTime = planHorizon(plan);
  EXPECT_FALSE(decodeFuzzPlan(encodeFuzzPlan(plan), &error).has_value());
  EXPECT_NE(error.find("heal"), std::string::npos) << error;
}

TEST(PlanCodecTest, ThirtyTwoBitFieldsRejectValuesThatWouldWrap) {
  // These plan fields are 32-bit: 2^32 + v must be a decode error naming
  // the field, not a silent replay of the plan with v.
  FuzzPlan plan = sampleFuzzPlan(AlgoStack::kEtob, 1, 0);
  plan.chaos.dupNum = 1;
  plan.chaos.dupDen = 2;
  plan.chaos.maxExtraCopies = 1;
  plan.chaos.reorderJitter = 20;
  plan.chaos.onlyTouching = kNoProcess;
  plan.loss.lossNum = 1;
  plan.loss.lossDen = 8;
  plan.loss.activeUntil = 5000;
  plan.maxTime = planHorizon(plan);
  const Json base = encodeFuzzPlan(plan);
  struct Field {
    const char* section;
    const char* key;
    std::uint64_t value;
  };
  const Field fields[] = {{"chaos", "dup_num", 1},
                          {"chaos", "dup_den", 2},
                          {"chaos", "max_extra_copies", 1},
                          {"loss", "loss_num", 1},
                          {"loss", "loss_den", 8}};
  for (const Field& f : fields) {
    SCOPED_TRACE(f.key);
    for (const std::uint64_t value : {(std::uint64_t{1} << 32) + f.value, f.value}) {
      Json j = base;
      Json section = *j.find(f.section);
      section.set(f.key, Json::number(value));
      j.set(f.section, std::move(section));
      std::string error;
      const std::optional<FuzzPlan> decoded = decodeFuzzPlan(j, &error);
      if (value == f.value) {
        ASSERT_TRUE(decoded.has_value()) << error;
        EXPECT_EQ(encodeFuzzPlan(*decoded).dump(), base.dump());
      } else {
        EXPECT_FALSE(decoded.has_value());
        EXPECT_NE(error.find(std::string("field '") + f.key + "'"),
                  std::string::npos)
            << error;
      }
    }
  }
}

TEST(PlanCodecTest, NumericNoProcessSentinelIsRejected) {
  // 2^64 - 1 is kNoProcess, which a plan spells "none" or leaves out. Read
  // as a number it would drop the slow link or the one-way cut, or widen
  // an isolation or the chaos filter to every link: a decode error naming
  // the field, not a silent replay of another plan.
  FuzzPlan plan = sampleFuzzPlan(AlgoStack::kEtob, 1, 0);
  plan.crashes.clear();  // keeps slow_link's "process" the only one
  plan.partitions = {PlanPartition{1000, 200, 0, 1}};
  plan.chaos.dupNum = 1;
  plan.chaos.dupDen = 2;
  plan.chaos.maxExtraCopies = 1;
  plan.chaos.onlyTouching = 1;
  plan.slowLink = PlanSlowLink{1, 3};
  plan.loss.oneWayFrom = 1;
  plan.loss.oneWayStart = 500;
  plan.loss.oneWayWidth = 100;
  plan.maxTime = planHorizon(plan);
  const std::string base = encodeFuzzPlan(plan).dump();
  std::string error;
  const std::optional<FuzzPlan> valid =
      decodeFuzzPlan(*Json::parse(base, &error), &error);
  ASSERT_TRUE(valid.has_value()) << error;
  EXPECT_EQ(encodeFuzzPlan(*valid).dump(), base);

  for (const std::string key : {"isolate", "only_touching", "process",
                                "one_way_from"}) {
    SCOPED_TRACE(key);
    const std::string field = "\"" + key + "\":";
    const std::size_t at = base.find(field + "1");
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(base.find(field, at + 1), std::string::npos);
    std::string edited = base;
    edited.replace(at, field.size() + 1, field + "18446744073709551615");
    error.clear();
    const std::optional<Json> j = Json::parse(edited, &error);
    ASSERT_TRUE(j.has_value()) << error;
    EXPECT_FALSE(decodeFuzzPlan(*j, &error).has_value());
    EXPECT_NE(error.find("field '" + key + "'"), std::string::npos) << error;
  }

  // Without its window the sentinel one-way cut used to decode as a plan
  // with no loss layer at all.
  Json j = *Json::parse(base, &error);
  Json loss = Json::object();
  loss.set("one_way_from", Json::number(kNoProcess));
  j.set("loss", std::move(loss));
  error.clear();
  EXPECT_FALSE(decodeFuzzPlan(j, &error).has_value());
  EXPECT_NE(error.find("field 'one_way_from'"), std::string::npos) << error;
}

// --- Corpus entries ---------------------------------------------------------

TEST(CorpusCodecTest, EntryRoundTripsAndReplays) {
  const FuzzPlan plan = sampleFuzzPlan(AlgoStack::kEtob, 5, 3);
  const CorpusEntry entry =
      makeCorpusEntry("rt-test", "unit test", plan, FuzzOracle::kSpec);
  const std::string dump = encodeCorpusEntry(entry).dump();
  std::string error;
  std::optional<CorpusEntry> decoded =
      decodeCorpusEntry(*Json::parse(dump, &error), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->name, "rt-test");
  EXPECT_EQ(decoded->oracle, "spec");
  EXPECT_EQ(encodeCorpusEntry(*decoded).dump(), dump);
  // The entry pins its own outcome, so replay must match.
  std::string whyNot;
  EXPECT_TRUE(replayCorpusEntry(*decoded, &whyNot)) << whyNot;
}

TEST(CorpusCodecTest, TamperedDigestFailsReplayOnMatchingStdlib) {
  const FuzzPlan plan = sampleFuzzPlan(AlgoStack::kEtob, 5, 4);
  CorpusEntry entry =
      makeCorpusEntry("tamper-test", "unit test", plan, FuzzOracle::kSpec);
  ASSERT_EQ(entry.expect.digests.size(), 1u);
  entry.expect.digests[0].second ^= 1;  // flip one digest bit
  std::string whyNot;
  EXPECT_FALSE(replayCorpusEntry(entry, &whyNot));
  EXPECT_NE(whyNot.find("digest"), std::string::npos);
}

TEST(CorpusCodecTest, TamperedExpectationFailsReplay) {
  const FuzzPlan plan = sampleFuzzPlan(AlgoStack::kEtob, 5, 5);
  CorpusEntry entry =
      makeCorpusEntry("expect-test", "unit test", plan, FuzzOracle::kSpec);
  entry.expect.pass = !entry.expect.pass;
  EXPECT_FALSE(replayCorpusEntry(entry));
}

TEST(CorpusCodecTest, BarePlanDecodesAsPassExpectation) {
  const FuzzPlan plan = sampleFuzzPlan(AlgoStack::kGossipLww, 2, 0);
  std::string error;
  std::optional<CorpusEntry> entry =
      decodeCorpusEntry(encodeFuzzPlan(plan), &error);
  ASSERT_TRUE(entry.has_value()) << error;
  EXPECT_TRUE(entry->expect.pass);
  EXPECT_TRUE(entry->expect.digests.empty());
}

}  // namespace
}  // namespace wfd
