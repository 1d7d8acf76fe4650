// Scale-regression suite: pins the simulator's behavior across the
// big-cluster performance refactors.
//
// The digest matrix below was generated from the implementation BEFORE
// the lazy-event-queue / indexed-partition / FD-cache rewrites (PR 7),
// so every hot-path change since is proven behavior-preserving at small
// n: a refactor that reorders events, changes an FD value, or defers a
// message differently flips at least one of these 54 constants. The
// same scenario shapes then run at n=64 as smoke tests — the sizes the
// refactors exist for.
//
// If a digest here EVER changes, that is a behavior change, not a
// refactor. Do not re-pin without understanding exactly which event
// stream changed and why that is intended.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "scenario/scale_scenarios.h"

namespace wfd {

// gtest finds this by ADL in AlgoStack's namespace, so the parameter (and
// the ctest name) prints as the stack's name rather than its raw bytes.
void PrintTo(AlgoStack stack, std::ostream* os) { *os << algoStackName(stack); }

namespace {

using scaletest::scalePartitionScenario;
using scaletest::scaleScenario;

constexpr std::size_t kNs[] = {3, 5, 8};
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

// Generated from the pre-refactor implementation (PR 7 pin step);
// indexed [stack in kAllAlgoStacks order][n in kNs][seed in kSeeds].
// The etob and commit-etob rows (and the partition variant below, which
// runs the etob stack) were re-pinned for the eTOB hot-path rebuild:
// frontier-based auto-causal deps and delta-encoded promotes change the
// abstract wire WEIGHTS (which traceDigest folds in), while schedules,
// delivery sequences and every non-eTOB row are bit-identical — the
// tob-via-consensus / gossip-lww / omega-ec rows did not move.
constexpr std::uint64_t kPinnedMatrix[5][3][3] = {
    // etob
    {
        {0x245e8024ae145d4eULL, 0xe5a863ffa93db64eULL, 0x79b6028e5d19e90bULL},
        {0x93d4cd9e166e97acULL, 0x99208af6774bc55dULL, 0x586025a82e583022ULL},
        {0x1fe58ca76fd38448ULL, 0xae2e2594d4831ba5ULL, 0xd5f69d4d64a2b6feULL},
    },
    // commit-etob
    {
        {0x370aa57b6d25e1c9ULL, 0x48c626270d1e8d71ULL, 0xdded93c455c60d1aULL},
        {0x0c696b27d13318bfULL, 0xe2a932da39de9eb9ULL, 0xc08484f702cae6c6ULL},
        {0x0365bb04facb1804ULL, 0xaae0c0ddcc0d15f6ULL, 0xcfc2225ab305edf0ULL},
    },
    // tob-via-consensus
    {
        {0x1cda1272c7e8ba16ULL, 0x53062a8378f4614eULL, 0xda76c93c391e5052ULL},
        {0xb740483ca562f558ULL, 0x2c39e721ccc44928ULL, 0x8a3b5fea4b75b8ddULL},
        {0x7a9c766ce47fd8bcULL, 0x1111a8d128256866ULL, 0x4e4416dfaaf59db0ULL},
    },
    // gossip-lww
    {
        {0xdc040175422455b4ULL, 0xeef1b99d6c2bdef3ULL, 0xef4318c0e6be2ecfULL},
        {0x43bba940d595ca8dULL, 0x991b71eb45633395ULL, 0x1352d3d4c61c6831ULL},
        {0x6b9e5b0bb5da2614ULL, 0xd5018ac8b04d38e9ULL, 0xa3fe110c35b760dcULL},
    },
    // omega-ec
    {
        {0xf0f02ece9c95a7cdULL, 0xcc712804a0f0960eULL, 0x84cf68c2282f5366ULL},
        {0xe27ae3b71749f085ULL, 0x9cedddb4cc2c0109ULL, 0x646512e6551a15b1ULL},
        {0x4399dd321e2bbe9dULL, 0x63b900a7ab1bdc26ULL, 0xa4775ad492d0a600ULL},
    },
};

// Same pre-refactor pin for the periodic half/half partition variant
// (the indexed-connectivity rewrite's anchor); [n in kNs][seed in kSeeds].
constexpr std::uint64_t kPinnedPartition[3][3] = {
    {0x2266cc615b4d04e6ULL, 0x6ad209b2415b0bebULL, 0x722d5d8fd607fe3cULL},
    {0xd963940c34da6dc1ULL, 0x4f35a7b64630c78eULL, 0xedf41a0013e33f7fULL},
    {0x87e16f728b57c2bcULL, 0x3c00f937fdb790d7ULL, 0x7f0368039d23e388ULL},
};

TEST(ScalePinnedDigestTest, MatrixMatchesPreRefactorPins) {
  for (std::size_t si = 0; si < std::size(kAllAlgoStacks); ++si) {
    const AlgoStack stack = kAllAlgoStacks[si];
    for (std::size_t ni = 0; ni < std::size(kNs); ++ni) {
      for (std::size_t ki = 0; ki < std::size(kSeeds); ++ki) {
        const auto r =
            runScenario(scaleScenario(stack, kNs[ni]), kSeeds[ki]);
        EXPECT_TRUE(r.pass)
            << algoStackName(stack) << " n=" << kNs[ni]
            << " seed=" << kSeeds[ki]
            << (r.failures.empty() ? "" : ": " + r.failures.front());
        EXPECT_EQ(r.digest, kPinnedMatrix[si][ni][ki])
            << algoStackName(stack) << " n=" << kNs[ni]
            << " seed=" << kSeeds[ki];
      }
    }
  }
}

TEST(ScalePinnedDigestTest, PartitionVariantMatchesPreRefactorPins) {
  for (std::size_t ni = 0; ni < std::size(kNs); ++ni) {
    for (std::size_t ki = 0; ki < std::size(kSeeds); ++ki) {
      const auto r =
          runScenario(scalePartitionScenario(kNs[ni]), kSeeds[ki]);
      EXPECT_TRUE(r.pass)
          << "partition n=" << kNs[ni] << " seed=" << kSeeds[ki]
          << (r.failures.empty() ? "" : ": " + r.failures.front());
      EXPECT_EQ(r.digest, kPinnedPartition[ni][ki])
          << "partition n=" << kNs[ni] << " seed=" << kSeeds[ki];
    }
  }
}

// n=64 smoke: every stack runs its scale shape at a size where the
// O(n^2) bookkeeping used to dominate, and every checker still passes.
class LargeClusterSmokeTest : public ::testing::TestWithParam<AlgoStack> {};

TEST_P(LargeClusterSmokeTest, N64ShapePasses) {
  // Gossip-LWW at n=64 pays an O(n^2 * rounds * table) merge cost that
  // is protocol-inherent, not simulator overhead — a shorter horizon
  // (convergence happens by ~1500) keeps the smoke affordable under
  // sanitizers without weakening what it checks.
  const Time horizon = GetParam() == AlgoStack::kGossipLww ? 3000 : 6000;
  const auto r = runScenario(scaleScenario(GetParam(), 64, horizon), 1);
  EXPECT_TRUE(r.pass) << (r.failures.empty() ? "" : r.failures.front());
  EXPECT_GT(r.messagesDelivered, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStacks, LargeClusterSmokeTest, ::testing::ValuesIn(kAllAlgoStacks),
    [](const ::testing::TestParamInfo<AlgoStack>& info) {
      std::string name = algoStackName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(LargeClusterSmokeTest, N64PartitionShapePasses) {
  const auto r = runScenario(scalePartitionScenario(64), 1);
  EXPECT_TRUE(r.pass) << (r.failures.empty() ? "" : r.failures.front());
}

// --- The large-cluster catalog family ---------------------------------------
//
// These entries are excluded from the exhaustive sweeps in
// tests/test_scenarios.cpp and tests/test_api.cpp (see
// isLargeClusterScenario); this suite is their single per-build coverage:
// each entry runs once through the same facade path the sweeps use, and
// one entry double-runs as the determinism spot check.

TEST(LargeClusterCatalogTest, FamilyIsRegisteredAndMarked) {
  std::size_t large = 0;
  for (const Scenario& s : scenarioCatalog()) {
    if (isLargeClusterScenario(s)) {
      ++large;
      EXPECT_GE(s.config.processCount, 64u) << s.name;
    }
  }
  EXPECT_GE(large, 4u);
  ASSERT_NE(findScenario("large-cluster-leader-256"), nullptr);
  EXPECT_EQ(findScenario("large-cluster-leader-256")->config.processCount,
            256u);
}

// Seed-1 digests of the family, recorded while partition windows were
// still a network-model decorator; libstdc++ values like every pin.
struct FamilyPin {
  const char* name;
  std::uint64_t digest;
};

constexpr FamilyPin kFamilyPins[] = {
    {"large-cluster-leader-256", 0xc959ff97745b08c5ULL},
    {"large-cluster-cascade-64", 0x3f1cf06739be3b75ULL},
    {"large-cluster-partitions-64", 0x8862f41b7018c932ULL},
    {"large-cluster-gossip-128", 0x47e4391c4dc6fcd3ULL},
};

TEST(LargeClusterCatalogTest, EveryFamilyEntryPassesItsCheckerSet) {
  std::size_t pinned = 0;
  for (const Scenario& s : scenarioCatalog()) {
    if (!isLargeClusterScenario(s)) continue;
    const ScenarioRunResult r = runScenario(s, 1);
    EXPECT_TRUE(r.pass)
        << s.name << (r.failures.empty() ? "" : ": " + r.failures.front());
    EXPECT_GT(r.eventsProcessed, 0u) << s.name;
    for (const FamilyPin& pin : kFamilyPins) {
      if (s.name != pin.name) continue;
      ++pinned;
#if defined(__GLIBCXX__)
      EXPECT_EQ(r.digest, pin.digest) << s.name;
#endif
    }
  }
  EXPECT_EQ(pinned, std::size(kFamilyPins));
}

TEST(LargeClusterCatalogTest, Leader256IsDeterministic) {
  const Scenario* s = findScenario("large-cluster-leader-256");
  ASSERT_NE(s, nullptr);
  const ScenarioRunResult a = runScenario(*s, 7);
  const ScenarioRunResult b = runScenario(*s, 7);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
}

}  // namespace
}  // namespace wfd
