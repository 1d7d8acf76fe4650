// Scenario subsystem tests: the whole catalog runs green under its own
// checker sets, every (scenario, seed) pair is reproducible digest-for-
// digest, and the uniform-delay NetworkModel replays pre-refactor traces
// bit-for-bit (golden digests recorded against the pre-NetworkModel
// Simulator at the commit that introduced the refactor).
#include <gtest/gtest.h>

#include <memory>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "checkers/trace_digest.h"
#include "checkers/workload.h"
#include "common/json.h"
#include "etob/etob_automaton.h"
#include "fd/detectors.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"

namespace wfd {
namespace {

// --- Catalog hygiene --------------------------------------------------------

TEST(ScenarioCatalogTest, HasAtLeastTwelveEntriesWithUniqueNames) {
  const auto& catalog = scenarioCatalog();
  EXPECT_GE(catalog.size(), 12u);
  std::set<std::string> names;
  for (const Scenario& s : catalog) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate: " << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
    EXPECT_GE(s.config.processCount, 2u) << s.name;
  }
}

TEST(ScenarioCatalogTest, FindScenarioRoundTrips) {
  for (const Scenario& s : scenarioCatalog()) {
    const Scenario* found = findScenario(s.name);
    ASSERT_NE(found, nullptr) << s.name;
    EXPECT_EQ(found->name, s.name);
  }
  EXPECT_EQ(findScenario("no-such-scenario"), nullptr);
}

TEST(ScenarioCatalogTest, CatalogSpansMultipleNetworkModelsAndStacks) {
  std::set<std::string> networks;
  std::set<std::string> stacks;
  for (const Scenario& s : scenarioCatalog()) {
    if (s.shards > 0) continue;  // no single cluster to instantiate
    ScenarioInstance inst = instantiateScenario(s, 1);
    networks.insert(inst.sim->network().name());
    stacks.insert(algoStackName(s.stack));
  }
  // Uniform + at least asymmetric, chaos and lossy shapes.
  EXPECT_GE(networks.size(), 5u);
  EXPECT_GE(stacks.size(), 4u);
}

// --- Full catalog sweep: every entry is a regression test -------------------

// Every flat entry's digest at seeds 1 and 2, recorded while partition
// windows and clock skew were still network-model decorators, so moving
// them into SimConfig is pinned as a refactor. Sharded entries are
// pinned in test_sharded_kv.cpp, big-n ones in test_large_cluster.cpp.
// libstdc++ values, guarded like the golden traces below.
struct CatalogPin {
  const char* name;
  std::uint64_t digests[2];
};

constexpr CatalogPin kCatalogPins[] = {
    {"stable-leader", {0xefd8670db3b08dfdULL, 0xfe75cf6d473587caULL}},
    {"split-brain-heal", {0x566691416d8687eeULL, 0x5c7d93e554682337ULL}},
    {"rotating-omega", {0x36e169cd9981957bULL, 0xdf4260471f04fc32ULL}},
    {"minority-crash", {0x6e6d8e7dc25fa5b9ULL, 0x46718b3974a5c717ULL}},
    {"majority-crash-etob", {0x4af70924cefac6e3ULL, 0xe8cd9e2f202cf098ULL}},
    {"staggered-churn", {0xdbd3398fc0352ff0ULL, 0xb3f7ac73a83fe4b1ULL}},
    {"flaky-majority-link", {0x694b8acc10a187b1ULL, 0x9ce4d194d1f60c83ULL}},
    {"dup-reorder-storm", {0xf3cb688d0b504c18ULL, 0x9eea44e3e6f691b9ULL}},
    {"skewed-clocks", {0x32862bb48f754d49ULL, 0xb2adf8f20d52324eULL}},
    {"partition-heal-storm", {0x1e874f090768811cULL, 0xe7c8dff77a10352aULL}},
    {"adversarial-blackout", {0xd31b87105c0a3ad8ULL, 0xf64410385355e9a4ULL}},
    {"asymmetric-slow-leader", {0x2f73486f21c73cffULL, 0xf77d03f0d82291bcULL}},
    {"tob-baseline-stable", {0xad67c7e269e256cfULL, 0x55e5877d8e54399dULL}},
    {"tob-minority-crash", {0xec85d5c33604c2d3ULL, 0x7e877fe21b019911ULL}},
    {"commit-stable-majority", {0x3bdd9a9672c41b28ULL, 0x981653baf98947d9ULL}},
    {"commit-majority-crash", {0x35cb71b0997b140dULL, 0xd801e477bbc590d2ULL}},
    {"gossip-lww-convergence", {0x491552c2f6d59885ULL, 0x0c5fe66dda2e5ceaULL}},
    {"ec-omega-split-brain", {0x2b290321afd1bda0ULL, 0xe719b623ca079c12ULL}},
    {"skewed-chaos-combo", {0x062bd00f54164f68ULL, 0x8574f552634d6d7fULL}},
    {"lossy-iid-etob", {0xf040b09e114d86a2ULL, 0xdc2f316f96e77b91ULL}},
    {"lossy-burst-etob", {0x71e50d0f5af527eaULL, 0x91ec211282795319ULL}},
    {"lossy-burst-commit", {0x125dce38e8373aa5ULL, 0xed9b2f7006c01dc6ULL}},
    {"lossy-oneway-tob", {0xb3db86f94bd9042eULL, 0xb719a345f6076736ULL}},
    {"lossy-oneway-gossip", {0x31d62c6c761050deULL, 0xa0943081f301a7f4ULL}},
    {"lossy-gray-ec", {0xe8a1d994886f2070ULL, 0x82401015cb966582ULL}},
};

class CatalogSweepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CatalogSweepTest, PassesItsCheckerSet) {
  const Scenario* s = findScenario(GetParam());
  ASSERT_NE(s, nullptr);
  const CatalogPin* pin = nullptr;
  for (const CatalogPin& p : kCatalogPins) {
    if (s->name == p.name) pin = &p;
  }
  if (s->shards == 0) {
    ASSERT_NE(pin, nullptr) << "flat entry without a pin";
  }
  for (std::uint64_t seed : {1ull, 2ull}) {
    const ScenarioRunResult r = runScenario(*s, seed);
    EXPECT_TRUE(r.pass) << "seed " << seed << ": "
                        << (r.failures.empty() ? "?" : r.failures.front());
#if defined(__GLIBCXX__)
    if (pin != nullptr) {
      EXPECT_EQ(r.digest, pin->digests[seed - 1]) << "seed " << seed;
    }
#endif
  }
}

std::vector<std::string> allScenarioNames() {
  std::vector<std::string> names;
  for (const Scenario& s : scenarioCatalog()) {
    // Big-n entries are covered once per build by test_large_cluster
    // instead of ~10x here and under the sanitizer presets.
    if (isLargeClusterScenario(s)) continue;
    names.push_back(s.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(All, CatalogSweepTest,
                         ::testing::ValuesIn(allScenarioNames()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// --- Seed determinism: (scenario, seed) => digest is a function -------------

class SeedDeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SeedDeterminismTest, SameSeedSameDigestTwice) {
  const Scenario* s = findScenario(GetParam());
  ASSERT_NE(s, nullptr);
  const ScenarioRunResult a = runScenario(*s, 5);
  const ScenarioRunResult b = runScenario(*s, 5);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.endTime, b.endTime);
  EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
  EXPECT_EQ(a.messagesSent, b.messagesSent);
  EXPECT_EQ(a.duplicatesSuppressed, b.duplicatesSuppressed);
}

INSTANTIATE_TEST_SUITE_P(All, SeedDeterminismTest,
                         ::testing::ValuesIn(allScenarioNames()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(SeedDeterminismTest, DifferentSeedsPerturbTheRun) {
  // Spot-check on a randomness-heavy entry: distinct seeds must explore
  // distinct schedules (deterministically so — this is a fixed property
  // of the catalog, not a probabilistic assertion).
  const Scenario* s = findScenario("dup-reorder-storm");
  ASSERT_NE(s, nullptr);
  EXPECT_NE(runScenario(*s, 1).digest, runScenario(*s, 2).digest);
}

// --- Golden equivalence: the uniform model replays legacy traces ------------
//
// The three digests below were recorded by running these EXACT setups
// against the pre-NetworkModel Simulator (whose deliveryTime drew
// rng.between(minDelay, maxDelay) inline). The refactored simulator must
// reproduce them bit-for-bit, both through the default-constructed model
// and through an explicitly supplied UniformDelayModel.
//
// The constants are libstdc++ values: run schedules depend on
// std::uniform_int_distribution, whose algorithm is implementation-
// defined, so the same setups produce different (equally valid) traces
// on libc++/MSVC. The suite is guarded accordingly — determinism and
// default-vs-explicit-model equivalence remain covered everywhere by
// the SeedDeterminismTest suite above.
#if defined(__GLIBCXX__)

// Re-pinned for the eTOB hot-path rebuild (frontier auto-causal deps +
// delta-encoded promotes): all three runs use the eTOB stack, whose wire
// weights — folded into traceDigest — legitimately changed; schedules and
// delivery sequences are unchanged (the non-eTOB scale-matrix pins in
// test_large_cluster.cpp did not move).
constexpr std::uint64_t kGoldenA = 0x3df30e170cfc9d4bULL;
constexpr std::uint64_t kGoldenB = 0xf54efcd16ccb6313ULL;
constexpr std::uint64_t kGoldenC = 0x862c75d5e8ac12dfULL;

std::uint64_t runGoldenA(std::shared_ptr<const NetworkModel> model) {
  SimConfig cfg;
  cfg.processCount = 3;
  cfg.seed = 42;
  cfg.maxTime = 20000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  auto fp = FailurePattern::noFailures(3);
  auto omega =
      std::make_shared<OmegaFd>(fp, 1500, OmegaPreStabilization::kSplitBrain);
  Simulator sim(cfg, fp, omega, std::move(model));
  for (ProcessId p = 0; p < 3; ++p) {
    sim.addProcess(p, std::make_unique<EtobAutomaton>());
  }
  BroadcastWorkload w;
  w.start = 100;
  w.interval = 50;
  w.perProcess = 6;
  scheduleBroadcastWorkload(sim, w);
  sim.run();
  return traceDigest(sim.trace());
}

TEST(GoldenTraceTest, DefaultModelReproducesPreRefactorRun) {
  EXPECT_EQ(runGoldenA(nullptr), kGoldenA);
}

TEST(GoldenTraceTest, ExplicitUniformModelReproducesPreRefactorRun) {
  EXPECT_EQ(runGoldenA(std::make_shared<UniformDelayModel>(20, 40, false)),
            kGoldenA);
}

TEST(GoldenTraceTest, FixedDelayMinorityCrashReproduced) {
  SimConfig cfg;
  cfg.processCount = 5;
  cfg.seed = 7;
  cfg.maxTime = 15000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 30;
  cfg.maxDelay = 50;
  cfg.fixedDelay = true;
  auto fp = Environments::minorityCrash(5, 1200);
  auto omega =
      std::make_shared<OmegaFd>(fp, 2000, OmegaPreStabilization::kRotating);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < 5; ++p) {
    sim.addProcess(p, std::make_unique<EtobAutomaton>());
  }
  BroadcastWorkload w;
  w.start = 200;
  w.interval = 60;
  w.perProcess = 4;
  scheduleBroadcastWorkload(sim, w);
  sim.run();
  EXPECT_EQ(traceDigest(sim.trace()), kGoldenB);
}

TEST(GoldenTraceTest, LegacyLinkDisruptionReproduced) {
  SimConfig cfg;
  cfg.processCount = 3;
  cfg.seed = 11;
  cfg.maxTime = 12000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  auto fp = FailurePattern::noFailures(3);
  auto omega =
      std::make_shared<OmegaFd>(fp, 800, OmegaPreStabilization::kSplitBrain);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < 3; ++p) {
    sim.addProcess(p, std::make_unique<EtobAutomaton>());
  }
  PartitionSpec d;
  d.start = 500;
  d.width = 2000;
  d.affects = [](ProcessId from, ProcessId to) { return from == 2 || to == 2; };
  sim.addPartition(d);
  BroadcastWorkload w;
  w.start = 100;
  w.interval = 50;
  w.perProcess = 5;
  scheduleBroadcastWorkload(sim, w);
  sim.run();
  EXPECT_EQ(traceDigest(sim.trace()), kGoldenC);
}

#endif  // defined(__GLIBCXX__)

// --- Exactly-once under duplicating models ----------------------------------

TEST(ScenarioRunTest, DuplicatingModelsSuppressAtTheBoundary) {
  const Scenario* s = findScenario("dup-reorder-storm");
  ASSERT_NE(s, nullptr);
  const ScenarioRunResult r = runScenario(*s, 3);
  EXPECT_TRUE(r.pass) << (r.failures.empty() ? "?" : r.failures.front());
  // The network duplicated aggressively; none of it reached an automaton
  // twice (r.pass already covers no-duplication; this pins the mechanism).
  EXPECT_GT(r.duplicatesSuppressed, 0u);
}

TEST(ScenarioRunTest, ToJsonLineEscapesHostileStrings) {
  // Failure clauses and names are arbitrary strings; the emitter must
  // produce valid JSON for all of them (they route through the common
  // json.h writer) while keeping the documented key ORDER.
  ScenarioRunResult r;
  r.scenario = "evil \"name\" with \\ and \n";
  r.stack = "etob";
  r.network = "uniform";
  r.failures.push_back("clause with \"quote\"");
  const std::string line = toJsonLine(r);
  auto parsed = Json::parse(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(parsed->find("scenario")->asString(), r.scenario);
  EXPECT_EQ(parsed->find("failures")->items().at(0).asString(),
            "clause with \"quote\"");
  EXPECT_TRUE(line.rfind("{\"scenario\":", 0) == 0);  // key order kept
}

TEST(ScenarioRunTest, ToJsonLineEmitsShardedKeysOnlyForShardedRuns) {
  // Top-level keys in emission order (Json::fields() sorts them).
  const auto keys = [](const ScenarioRunResult& r) {
    const std::string line = toJsonLine(r);
    EXPECT_TRUE(Json::parse(line).has_value()) << line;
    const std::regex key("\"([a-z_]+)\":");
    std::vector<std::string> out;
    for (auto it = std::sregex_iterator(line.begin(), line.end(), key);
         it != std::sregex_iterator(); ++it) {
      out.push_back((*it)[1]);
    }
    return out;
  };
  const std::vector<std::string> flat = {
      "scenario", "seed", "pass", "stack", "network", "end_time", "events",
      "messages_sent", "messages_delivered", "duplicates_suppressed", "tau_hat",
      "digest", "failures"};
  ScenarioRunResult r;
  EXPECT_EQ(keys(r), flat);

  std::vector<std::string> sharded = flat;
  sharded.insert(sharded.begin() + 11,
                 {"shards", "puts", "committed_puts", "gets", "successful_gets",
                  "refolds", "rebalances"});
  r.shards = 4;
  EXPECT_EQ(keys(r), sharded);
}

}  // namespace
}  // namespace wfd
