// Portable, order-sensitive 64-bit digest of a run trace.
//
// Two runs of the same binary produce equal digests iff the simulator
// visited the same schedule: the digest folds in per-process step counts,
// every delivery snapshot (time and sequence), the final d_i, every
// output event (time, plus decoded content for the library's known
// output types), and the global message counters. The mixing is explicit
// FNV-1a over a u64 stream — NOT std::hash — so the digest of a GIVEN
// trace is portable. Pinned digest constants for simulated runs are
// nevertheless only comparable across builds sharing a standard-library
// implementation: run schedules draw from std::uniform_int_distribution
// (via Rng), whose algorithm is implementation-defined — libstdc++ and
// libc++/MSVC produce different value sequences from the same engine.
#pragma once

#include <cstdint>

#include "common/hash.h"
#include "sim/trace.h"

namespace wfd {

/// Incremental FNV-1a over 64-bit words (each word folded byte-by-byte).
class TraceHasher {
 public:
  void mix(std::uint64_t word) { state_ = fnv1a64Word(state_, word); }

  std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = kFnv64OffsetBasis;
};

/// Digest of everything the trace recorded. Requires nothing beyond the
/// trace itself; payload contents are folded in for the known output
/// vocabulary (EC/EIC decisions, proposals, commit indications, gossip
/// applies) and every other payload type contributes its timing only.
std::uint64_t traceDigest(const Trace& trace);

}  // namespace wfd
