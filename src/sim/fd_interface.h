// Failure detector abstraction: values and histories H(p, t).
//
// A failure detector D maps a failure pattern F to a set of histories;
// a concrete oracle here computes one deterministic history per
// (pattern, parameters, seed). Protocols only ever see FdValue samples
// through StepContext — the oracle itself is allowed to look at F, as in
// the formal definition.
//
// Properties (completeness/accuracy form). A detector class is specified
// by a pair of clauses over its histories, one bounding what must
// eventually be reported (completeness) and one bounding what may be
// reported (accuracy); the FdValue fields carry the two classical
// shapes used in this repo:
//  * leader (Omega)  — Completeness: eventually no correct process
//    trusts a crashed one. Accuracy: eventually all correct processes
//    trust the SAME correct process, forever. (EPFD ch. 2.6.5 "eventual
//    leader election" — both clauses folded into one output.)
//  * suspects (P/◇P) — Strong Completeness: every crashed process is
//    eventually suspected by every correct process. Strong Accuracy
//    (EPFD1, P): no process is suspected before it crashes; Eventual
//    Strong Accuracy (EPFD2, ◇P): eventually no correct process is
//    suspected.
// Sigma has no oracle here: Multi-Paxos (consensus/multi_paxos.h)
// hard-codes majority quorums, which realize it whenever a majority is
// correct.
// The checkers and the CHT extractor rely only on these clauses, never
// on how a particular oracle realizes them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/types.h"

namespace wfd {

/// A single failure detector module output d.
///
/// One aggregate covers every detector in this library: Omega uses
/// `leader`, P / eventually-P use `suspects`. The unused field keeps its
/// default so values stay comparable and hashable (the CHT DAG keys on
/// them).
struct FdValue {
  /// Omega component: id of the current trusted leader.
  ProcessId leader = kNoProcess;
  /// P / eventually-P component: currently suspected processes, sorted.
  std::vector<ProcessId> suspects;

  /// Equality plus a canonical total order (the CHT reduction sorts
  /// failure-detector samples into a process-independent order).
  auto operator<=>(const FdValue&) const = default;
};

struct FdValueHash {
  std::size_t operator()(const FdValue& v) const {
    std::size_t seed = std::hash<ProcessId>{}(v.leader);
    hashCombine(seed, hashVector(v.suspects));
    return seed;
  }
};

/// The classical ◇P -> Omega rule: trust the smallest process the sorted
/// `suspects` list does not name, or `self` when it names all of them.
/// Once ◇P is exact, every correct process picks the same lowest correct
/// process.
inline ProcessId leaderFromSuspects(const std::vector<ProcessId>& suspects,
                                    ProcessId self, std::size_t processCount) {
  for (ProcessId q = 0; q < processCount; ++q) {
    if (!std::binary_search(suspects.begin(), suspects.end(), q)) return q;
  }
  return self;
}

/// A failure detector history: deterministic map (p, t) -> FdValue.
class FailureDetector {
 public:
  virtual ~FailureDetector() = default;

  /// The value output by p's module at time t, i.e. H(p, t).
  virtual FdValue valueAt(ProcessId p, Time t) const = 0;

  /// Change-epoch of H(p, ·): the contract is
  ///   epochAt(p, t1) == epochAt(p, t2)  =>  valueAt(p, t1) == valueAt(p, t2).
  /// The simulator queries the (cheap) epoch on every step and only
  /// recomputes the (possibly O(n)) value when the epoch moved, making FD
  /// history queries amortized O(1) on the hot path — detector values
  /// change a handful of times per run while steps number in the
  /// millions at n=256. The default maps every tick to its own epoch:
  /// always correct, never caches. Overrides must be conservative —
  /// returning distinct epochs for equal values only costs speed, while
  /// equal epochs for distinct values would silently corrupt runs.
  virtual std::uint64_t epochAt(ProcessId p, Time t) const {
    (void)p;
    return static_cast<std::uint64_t>(t);
  }

  /// Human-readable detector name, for diagnostics and bench tables.
  virtual std::string name() const = 0;
};

}  // namespace wfd
