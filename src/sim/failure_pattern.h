// Failure patterns F : N -> 2^Pi and environments (sets of patterns).
//
// Processes fail only by crashing and never recover: F(t) ⊆ F(t+1).
// A pattern is represented by one crash time per process (kNever for
// correct processes), which encodes exactly the monotone F of the paper.
#pragma once

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "common/ensure.h"
#include "common/types.h"

namespace wfd {

/// A crash failure pattern over n processes.
class FailurePattern {
 public:
  /// Crash time meaning "never crashes" (process is correct).
  static constexpr Time kNever = std::numeric_limits<Time>::max();

  /// Pattern with n processes and no failures.
  explicit FailurePattern(std::size_t n);

  /// Convenience factories.
  static FailurePattern noFailures(std::size_t n);
  static FailurePattern crashesAt(std::size_t n,
                                  std::vector<std::pair<ProcessId, Time>> crashes);

  /// Marks p as crashing at time t (it takes no step at or after t).
  void setCrash(ProcessId p, Time t);

  std::size_t size() const { return crashTimes_.size(); }

  /// True iff p ∈ F(t).
  bool crashed(ProcessId p, Time t) const {
    WFD_ENSURE(p < crashTimes_.size());
    return crashTimes_[p] <= t && crashTimes_[p] != kNever;
  }

  /// True iff p ∈ faulty(F).
  bool faulty(ProcessId p) const {
    WFD_ENSURE(p < crashTimes_.size());
    return crashTimes_[p] != kNever;
  }

  /// True iff p ∈ correct(F).
  bool correct(ProcessId p) const { return !faulty(p); }

  /// Crash time of p (kNever if correct).
  Time crashTime(ProcessId p) const;

  /// correct(F), ascending.
  std::vector<ProcessId> correctSet() const;

  /// faulty(F), ascending.
  std::vector<ProcessId> faultySet() const;

  /// Processes not crashed at time t, ascending.
  std::vector<ProcessId> aliveAt(Time t) const;

  /// Smallest-id correct process; kNoProcess if all faulty.
  ProcessId lowestCorrect() const;

  /// True iff |correct(F)| > n/2 — the environment assumption under which
  /// Omega alone suffices for strong consensus [2].
  bool hasCorrectMajority() const;

  /// Time by which all crashes have happened (0 if none).
  Time lastCrashTime() const;

 private:
  std::vector<Time> crashTimes_;
};

/// A (finite sample of an) environment: named generator of failure
/// patterns used by tests and benches.
struct Environments {
  /// A minority of processes crash at the given time (floor((n-1)/2)).
  static FailurePattern minorityCrash(std::size_t n, Time when);
  /// A majority of processes crash at the given time (correct set is a
  /// minority — outside the classical consensus environment).
  static FailurePattern majorityCrash(std::size_t n, Time when);
  /// Exactly the given number of crashes, staggered `spacing` apart
  /// starting at `firstAt`, crashing the highest ids first.
  static FailurePattern staggeredCrashes(std::size_t n, std::size_t count,
                                         Time firstAt, Time spacing);
};

}  // namespace wfd
