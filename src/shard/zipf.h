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
#pragma once

#include <cmath>
#include <cstdint>
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
      : seed_(seed) {
    WFD_ENSURE_MSG(items > 0, "empty key space");
    WFD_ENSURE_MSG(theta > 0.0 && theta < 1.0,
                   "theta in (0,1) — 1 needs the harmonic special case");
    cdf_.reserve(items);
    double sum = 0.0;
    for (std::uint64_t r = 0; r < items; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }

  std::uint64_t next() {
    const std::uint64_t z =
        splitmix64(seed_ ^ (0x7a697066ULL + counter_++));  // "zipf"
    // 53 mantissa bits -> u in [0, 1).
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

}  // namespace wfd
