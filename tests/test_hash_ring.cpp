// Unit and mutation tests for the consistent-hash ring — the routing
// layer of the sharded KV service. Pins the three properties the
// sharding design leans on: deterministic placement (every router
// agrees), balance (no shard hoards the key space), and minimal
// migration (node churn re-homes only the churned node's share). The
// ring's bucket index and the Zipfian generator's guide table are
// checked against the binary searches they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/ensure.h"
#include "common/hash.h"
#include "common/rng.h"
#include "shard/hash_ring.h"
#include "shard/zipf.h"

namespace wfd {
namespace {

ConsistentHashRing makeRing(std::size_t nodes, std::uint64_t seed,
                            std::size_t virtualNodes = 64) {
  ConsistentHashRing ring(ConsistentHashRing::Config{virtualNodes, seed});
  for (std::size_t n = 0; n < nodes; ++n) {
    ring.addNode(static_cast<std::uint32_t>(n));
  }
  return ring;
}

constexpr std::uint64_t kKeys = 100'000;

TEST(HashRing, PlacementIsDeterministicPerSeed) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    const ConsistentHashRing a = makeRing(8, seed);
    const ConsistentHashRing b = makeRing(8, seed);
    for (std::uint64_t k = 0; k < 1'000; ++k) {
      ASSERT_EQ(a.ownerOf(k), b.ownerOf(k)) << "seed " << seed << " key " << k;
    }
  }
}

TEST(HashRing, DistinctSeedsProduceDistinctPlacements) {
  const ConsistentHashRing a = makeRing(8, 1);
  const ConsistentHashRing b = makeRing(8, 2);
  std::size_t moved = 0;
  for (std::uint64_t k = 0; k < 1'000; ++k) {
    if (a.ownerOf(k) != b.ownerOf(k)) ++moved;
  }
  // Independent placements agree on ~1/8 of keys by chance.
  EXPECT_GT(moved, 700u);
}

TEST(HashRing, BalanceBoundAt64VirtualNodes) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    for (std::size_t nodes : {2ULL, 4ULL, 8ULL}) {
      const ConsistentHashRing ring = makeRing(nodes, seed);
      std::map<std::uint32_t, std::uint64_t> share;
      for (std::uint64_t k = 0; k < kKeys; ++k) ++share[ring.ownerOf(k)];
      const double mean = static_cast<double>(kKeys) / nodes;
      for (const auto& [node, count] : share) {
        EXPECT_LT(count / mean, 1.3)
            << "node " << node << " of " << nodes << ", seed " << seed;
      }
      EXPECT_EQ(share.size(), nodes);
    }
  }
}

TEST(HashRing, AddNodeMigratesAboutOneOverN) {
  const std::size_t n = 8;
  ConsistentHashRing ring = makeRing(n, 3);
  std::vector<std::uint32_t> before(kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) before[k] = ring.ownerOf(k);
  ring.addNode(n);
  std::uint64_t moved = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::uint32_t owner = ring.ownerOf(k);
    if (owner != before[k]) {
      ++moved;
      // Consistent hashing: a key only ever moves TO the new node.
      EXPECT_EQ(owner, n);
    }
  }
  // E[moved] = kKeys / (n + 1) ~ 11111; allow generous sampling slack.
  const double fraction = static_cast<double>(moved) / kKeys;
  EXPECT_GT(fraction, 0.5 / (n + 1));
  EXPECT_LT(fraction, 2.0 / (n + 1));
}

TEST(HashRing, RemoveNodeRehomesExactlyItsKeys) {
  ConsistentHashRing ring = makeRing(8, 4);
  std::vector<std::uint32_t> before(kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) before[k] = ring.ownerOf(k);
  ASSERT_TRUE(ring.removeNode(3));
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    if (before[k] == 3) {
      EXPECT_NE(ring.ownerOf(k), 3u);
    } else {
      // The crash-rebalance guarantee: live shards keep every key.
      ASSERT_EQ(ring.ownerOf(k), before[k]) << "key " << k;
    }
  }
  EXPECT_FALSE(ring.contains(3));
  EXPECT_EQ(ring.nodeCount(), 7u);
  EXPECT_EQ(ring.pointCount(), 7u * 64u);
}

TEST(HashRing, OwnersOfReturnsDistinctNodesOwnerFirst) {
  const ConsistentHashRing ring = makeRing(5, 9);
  for (std::uint64_t k = 0; k < 200; ++k) {
    const std::vector<std::uint32_t> owners = ring.ownersOf(k, 3);
    ASSERT_EQ(owners.size(), 3u);
    EXPECT_EQ(owners[0], ring.ownerOf(k));
    EXPECT_NE(owners[0], owners[1]);
    EXPECT_NE(owners[0], owners[2]);
    EXPECT_NE(owners[1], owners[2]);
  }
  // Asking for more replicas than nodes returns every node once.
  EXPECT_EQ(ring.ownersOf(1, 99).size(), 5u);
}

/// The ring's placement recomputed outside it: every live node's
/// virtual points, sorted, searched with upper_bound. The oracle for the
/// bucket index.
class ReferenceRing {
 public:
  ReferenceRing(const ConsistentHashRing& ring, std::uint64_t seed,
                std::size_t virtualNodes)
      : ring_(ring) {
    for (const std::uint32_t node : ring.nodes()) {
      for (std::uint64_t v = 0; v < virtualNodes; ++v) {
        points_.emplace_back(
            splitmix64(fnv1a64Words({0x706f696e74ULL, seed, node, v})), node);
      }
    }
    std::sort(points_.begin(), points_.end());
  }

  std::uint32_t ownerOf(std::uint64_t key) const {
    auto it = std::upper_bound(
        points_.begin(), points_.end(), ring_.keyPosition(key),
        [](std::uint64_t p, const auto& pt) { return p < pt.first; });
    if (it == points_.end()) it = points_.begin();
    return it->second;
  }

 private:
  const ConsistentHashRing& ring_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;
};

TEST(HashRing, IndexedOwnerMatchesUpperBoundThroughChurn) {
  // Random add and remove sequences keep the ring between 1 and 16
  // nodes; after each, 10,000 keys resolve to the reference's owner. One
  // and three virtual nodes give rings of 1 point and of non-power-of-two
  // sizes, whose indexes have one bucket and fractional fill.
  std::size_t checks = 0;
  for (const std::size_t virtualNodes : {1, 3, 64}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed * 131 + virtualNodes);
      ConsistentHashRing ring(ConsistentHashRing::Config{virtualNodes, seed});
      ring.addNode(static_cast<std::uint32_t>(rng.below(32)));
      for (int step = 0; step < 8; ++step) {
        const bool add = ring.nodeCount() == 1 ||
                         (ring.nodeCount() < 16 && rng.chance(2, 3));
        if (add) {
          std::uint32_t node = static_cast<std::uint32_t>(rng.below(32));
          while (ring.contains(node)) node = (node + 1) % 32;
          ring.addNode(node);
        } else {
          ASSERT_TRUE(ring.removeNode(ring.nodes()[rng.below(ring.nodeCount())]));
        }
        const ReferenceRing reference(ring, seed, virtualNodes);
        ASSERT_EQ(ring.pointCount(), ring.nodeCount() * virtualNodes);
        const std::uint64_t base = rng.engine()();
        for (std::uint64_t k = 0; k < 10'000; ++k) {
          const std::uint64_t key = base + k * 0x9e3779b97f4a7c15ULL;
          ASSERT_EQ(ring.ownerOf(key), reference.ownerOf(key))
              << virtualNodes << " vnodes, seed " << seed << ", step " << step;
        }
        ++checks;
      }
    }
  }
  EXPECT_EQ(checks, 3u * 4u * 8u);
}

TEST(HashRing, KeyPositionMatchesParentValues) {
  // Golden positions from the ring that hashed {kKeyTag, seed, key} in
  // full on every lookup; resuming from the precomputed tag-and-seed state
  // must not move a key. Every pinned ring digest rests on these.
  struct Golden {
    std::uint64_t seed;
    std::uint64_t key;
    std::uint64_t position;
  };
  constexpr std::uint64_t kTop = 1ULL << 63;
  constexpr std::uint64_t kMaxSeed = ~0ULL;
  const Golden golden[] = {
      {0, 0, 0x9c6523fa87d73d9bULL},        {0, 1, 0xf5aa447a9296afaeULL},
      {0, 4095, 0x32df54575ac16f0aULL},     {0, kTop, 0x3ff2559f9bee1a53ULL},
      {1, 0, 0xe1126fbec6eb1b5bULL},        {1, 1, 0xb90c0596a61e01aeULL},
      {1, 4095, 0x123762b9503e4970ULL},     {1, kTop, 0x0062b3f94785f8b3ULL},
      {kMaxSeed, 0, 0xc899f89b6916f4c2ULL}, {kMaxSeed, 1, 0xfc27912aa0c8cfb7ULL},
      {kMaxSeed, 4095, 0x1bf8614837320926ULL},
      {kMaxSeed, kTop, 0x71d15c1a07a0580eULL},
  };
  for (const Golden& g : golden) {
    const ConsistentHashRing ring(ConsistentHashRing::Config{64, g.seed});
    EXPECT_EQ(ring.keyPosition(g.key), g.position) << "seed " << g.seed << " key " << g.key;
  }
}

TEST(HashRing, MisuseIsRejected) {
  ConsistentHashRing ring = makeRing(2, 1);
  EXPECT_THROW(ring.addNode(0), InvariantError);       // re-add
  EXPECT_FALSE(ring.removeNode(17));                   // absent
  ASSERT_TRUE(ring.removeNode(0));
  EXPECT_THROW(ring.removeNode(1), InvariantError);    // last node
  EXPECT_THROW(ConsistentHashRing(ConsistentHashRing::Config{0, 1}),
               InvariantError);                        // zero vnodes
}

// --- Key generators (the workload side of the routing layer) ---------------

TEST(KeyGenerators, UniformIsDeterministicAndCoversTheSpace) {
  UniformKeyGenerator a(64, 5);
  UniformKeyGenerator b(64, 5);
  std::map<std::uint64_t, std::uint64_t> hist;
  for (int i = 0; i < 6400; ++i) {
    const std::uint64_t k = a.next();
    ASSERT_EQ(k, b.next());
    ASSERT_LT(k, 64u);
    ++hist[k];
  }
  EXPECT_EQ(hist.size(), 64u);
}

TEST(KeyGenerators, ZipfianIsSkewedTowardRankZero) {
  ZipfianKeyGenerator gen(64, 0.99, 5);
  std::map<std::uint64_t, std::uint64_t> hist;
  for (int i = 0; i < 20'000; ++i) ++hist[gen.next()];
  // Under Zipf(0.99) over 64 items, rank 0 carries ~21% of the mass —
  // far above the uniform 1/64, and above every other rank.
  EXPECT_GT(hist[0], 20'000 / 8);
  for (const auto& [key, count] : hist) {
    if (key != 0) {
      EXPECT_GE(hist[0], count);
    }
  }
}

/// ZipfianKeyGenerator as it was before its guide table: the same CDF,
/// searched by bisection for the first entry above u, clamped to the
/// last rank. The oracle for the guided search.
class BisectionZipfian {
 public:
  BisectionZipfian(std::uint64_t items, double theta, std::uint64_t seed)
      : seed_(seed) {
    double sum = 0.0;
    for (std::uint64_t r = 0; r < items; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }

  std::uint64_t next() {
    return rankOf(splitmix64(seed_ ^ (0x7a697066ULL + counter_++)));
  }

  std::uint64_t rankOf(std::uint64_t z) const {
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
    std::uint64_t lo = 0;
    std::uint64_t hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (cdf_[mid] <= u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
  std::uint64_t seed_;
  std::uint64_t counter_ = 0;
};

TEST(KeyGenerators, GuidedZipfianMatchesBisection) {
  for (const std::uint64_t items : {1, 2, 3, 64, 4096}) {
    for (const double theta : {0.01, 0.5, 0.99}) {
      SCOPED_TRACE(std::to_string(items) + " items, theta " + std::to_string(theta));
      for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        ZipfianKeyGenerator guided(items, theta, seed);
        BisectionZipfian reference(items, theta, seed);
        for (int i = 0; i < 20'000; ++i) {
          ASSERT_EQ(guided.next(), reference.next()) << "seed " << seed << ", draw " << i;
        }
      }
      // Draws on and beside the guide table's edges, where u is exactly
      // b / 2^12, and the largest u below 1.
      const ZipfianKeyGenerator guided(items, theta, 1);
      const BisectionZipfian reference(items, theta, 1);
      for (std::uint64_t b = 0; b < 4096; ++b) {
        const std::uint64_t edge = b << 52;
        ASSERT_EQ(guided.rankOf(edge), reference.rankOf(edge)) << "edge " << b;
        ASSERT_EQ(guided.rankOf(edge + 2048), reference.rankOf(edge + 2048)) << "edge " << b;
        ASSERT_EQ(guided.rankOf(edge - 2048), reference.rankOf(edge - 2048)) << "edge " << b;
      }
      EXPECT_EQ(guided.rankOf(~0ULL), reference.rankOf(~0ULL));
      EXPECT_EQ(guided.rankOf(~0ULL), items - 1);
    }
  }
}

TEST(KeyGenerators, ZipfianTablesAreSharedAcrossThreads) {
  // Campaign workers may build generators at once. Threads that race to
  // build the same shapes (a theta no other test uses, so no table exists
  // yet) must each draw what the bisection draws; the tsan preset runs
  // this too.
  constexpr int kThreads = 4;
  constexpr double kTheta = 0.73;
  const std::uint64_t shapes[] = {17, 300, 1000};
  std::vector<std::vector<std::uint64_t>> draws(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&draws, &shapes, t] {
      for (const std::uint64_t items : shapes) {
        ZipfianKeyGenerator gen(items, kTheta, 9);
        for (int i = 0; i < 2000; ++i) draws[t].push_back(gen.next());
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::vector<std::uint64_t> expected;
  for (const std::uint64_t items : shapes) {
    BisectionZipfian reference(items, kTheta, 9);
    for (int i = 0; i < 2000; ++i) expected.push_back(reference.next());
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(draws[t], expected) << "thread " << t;
}

}  // namespace
}  // namespace wfd
