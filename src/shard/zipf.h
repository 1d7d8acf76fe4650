// Deterministic key-distribution generators for the sharded KV
// workloads: uniform and Zipfian(theta), the two shapes bench E14 and
// the sharded-* scenarios sample keys from.
//
// Both generators draw from a counter-mode splitmix64 stream — the i-th
// sample is a pure function of (seed, i) — so a workload is replayable
// from its seed alone and independent of call-site interleaving on
// other generators. The Zipfian CDF is precomputed with doubles
// (rank weight 1/i^theta); like every pinned digest in the repo the
// resulting key streams are stable per standard-library/libm build,
// which is what the scenario digest pins assume (checkers/trace_digest.h
// spells out the same caveat).
//
// A Zipfian draw is O(1) expected: a 2^12-entry guide table over the CDF
// (the indexed search of Chen and Asau, AIIE Transactions 1974) gives the
// first rank the draw can map to, and a short forward scan finds it. It
// returns exactly the rank a binary search over the CDF returns, so the
// key streams are the ones the pins were taken with.
//
// The CDF and the guide table depend only on (items, theta), cost one
// std::pow per rank to build, and never change, so generators of one
// shape share them: a process-wide memo (mutex-guarded, since campaign
// workers may build generators concurrently) builds each shape's table
// once and hands every later generator of that shape the same immutable
// block. A process keeps one table per distinct shape it asked for;
// the workloads here use a handful.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/ensure.h"
#include "common/hash.h"

namespace wfd {

/// Uniform keys over [0, items).
class UniformKeyGenerator {
 public:
  UniformKeyGenerator(std::uint64_t items, std::uint64_t seed)
      : items_(items), seed_(seed) {
    WFD_ENSURE_MSG(items > 0, "empty key space");
  }

  std::uint64_t next() {
    // Modulo bias is < items/2^64 — irrelevant for key spaces of a few
    // thousand, and bias-free rejection would break the pure (seed, i)
    // indexing.
    return splitmix64(seed_ ^ (0x756e69666f726dULL + counter_++)) % items_;
  }

 private:
  std::uint64_t items_;
  std::uint64_t seed_;
  std::uint64_t counter_ = 0;
};

/// Zipfian keys over [0, items): rank r is drawn with probability
/// proportional to 1/(r+1)^theta. theta ~ 0.99 is the classical YCSB
/// "hot key" skew (the top rank absorbs a fifth of all traffic at 64
/// keys). Rank order is the identity — key 0 is the hottest — which
/// keeps hot-shard placement a pure function of the ring seed.
class ZipfianKeyGenerator {
 public:
  ZipfianKeyGenerator(std::uint64_t items, double theta, std::uint64_t seed)
      : table_(tableFor(items, theta)), seed_(seed) {}

  std::uint64_t next() {
    return rankOf(splitmix64(seed_ ^ (0x7a697066ULL + counter_++)));  // "zipf"
  }

  /// The rank a raw 64-bit draw z maps to: the first rank whose CDF
  /// exceeds u = (z >> 11) * 2^-53, clamped to the last rank.
  std::uint64_t rankOf(std::uint64_t z) const {
    // 53 mantissa bits -> u in [0, 1). The top kGuideBits bits of z are
    // exactly floor(u * 2^kGuideBits), u's guide entry, and u is at
    // least that entry's edge, so the answer is at or after its rank.
    const std::vector<double>& cdf = table_->cdf;
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
    std::uint64_t r = table_->guide[z >> (64 - kGuideBits)];
    while (r + 1 < cdf.size() && cdf[r] <= u) ++r;
    return r;
  }

 private:
  static constexpr int kGuideBits = 12;

  /// The normalized CDF (cdf[r] = P(rank <= r)) and guide table of one
  /// (items, theta) shape; guide[b] is the first rank whose CDF exceeds
  /// b / 2^kGuideBits, clamped to the last rank.
  struct Table {
    std::vector<double> cdf;
    std::vector<std::uint64_t> guide;
  };

  /// The shared table of (items, theta), built on first request
  /// (shard/zipf.cpp). Rejects an empty key space and theta outside (0, 1).
  static std::shared_ptr<const Table> tableFor(std::uint64_t items, double theta);

  std::shared_ptr<const Table> table_;
  std::uint64_t seed_;
  std::uint64_t counter_ = 0;
};

}  // namespace wfd
