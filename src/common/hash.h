// Hash helpers for aggregate keys (failure-detector values, DAG vertices)
// and the portable FNV-1a constants shared by every stable digest in the
// repo (trace digests, plan fingerprints).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string_view>
#include <vector>

namespace wfd {

/// FNV-1a 64-bit parameters — single-sourced so the portable digests in
/// checkers/trace_digest.h and explore/fuzz_plan.cpp stay one algorithm.
inline constexpr std::uint64_t kFnv64OffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv64Prime = 0x100000001b3ULL;

/// FNV-1a over a byte string (canonical-JSON fingerprints).
inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = kFnv64OffsetBasis;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnv64Prime;
  }
  return h;
}

/// Folds one 64-bit word into the FNV-1a state h byte-by-byte
/// (little-endian) — the word mixing fnv1a64Words and TraceHasher
/// (checkers/trace_digest.h) share. A caller that hashes words behind a
/// fixed prefix keeps the state after the prefix and folds only the rest
/// (shard/hash_ring.h's key position).
inline std::uint64_t fnv1a64Word(std::uint64_t h, std::uint64_t w) {
  for (int i = 0; i < 8; ++i) {
    h ^= (w >> (8 * i)) & 0xffu;
    h *= kFnv64Prime;
  }
  return h;
}

/// FNV-1a over a sequence of 64-bit words, each folded by fnv1a64Word —
/// for callers that hash a handful of fixed words (the consistent-hash
/// ring's point and key positions in shard/hash_ring.h).
inline std::uint64_t fnv1a64Words(std::initializer_list<std::uint64_t> words) {
  std::uint64_t h = kFnv64OffsetBasis;
  for (std::uint64_t w : words) h = fnv1a64Word(h, w);
  return h;
}

/// One splitmix64 output step: platform-independent 64-bit mixing, used
/// for deterministic seed derivation (explore/fuzz_plan.cpp) and
/// detector noise (fd/detectors.cpp). One copy so the constants cannot
/// silently diverge.
inline std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Combines a hash value into a running seed (boost::hash_combine recipe).
inline void hashCombine(std::size_t& seed, std::size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// Hashes a range of hashable elements.
template <typename It>
std::size_t hashRange(It first, It last) {
  std::size_t seed = 0;
  for (; first != last; ++first) {
    hashCombine(seed, std::hash<std::decay_t<decltype(*first)>>{}(*first));
  }
  return seed;
}

/// Hashes a vector of hashable elements.
template <typename T>
std::size_t hashVector(const std::vector<T>& v) {
  return hashRange(v.begin(), v.end());
}

}  // namespace wfd
