// Concrete failure detector oracles.
//
// Each oracle deterministically computes one history H in D(F) from the
// failure pattern F and its parameters. Protocols never see F — only the
// per-step FdValue samples. The interesting knob everywhere is the
// stabilization time: the paper's results hinge on what happens *before*
// detectors stabilize (divergent Omega outputs model partition periods).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "sim/failure_pattern.h"
#include "sim/fd_interface.h"

namespace wfd {

/// How an Omega oracle behaves before its stabilization time tau_Omega.
enum class OmegaPreStabilization {
  /// Outputs the eventual leader from time 0 (tau_Omega is effectively 0).
  /// Under this history Algorithm 5 implements *strong* TOB (paper §5).
  kStable,
  /// All processes agree on a leader that rotates over the whole process
  /// set (including crashed processes) every rotationPeriod ticks.
  kRotating,
  /// Every process trusts a different leader (derived from its own id and
  /// the time) — models partition periods where elections disagree.
  kSplitBrain,
};

/// The eventual leader failure detector Omega: eventually outputs the same
/// correct process at every correct process, forever.
class OmegaFd final : public FailureDetector {
 public:
  /// `stabilizeAt` is tau_Omega; `leader` defaults to the lowest-id
  /// correct process of the pattern.
  OmegaFd(FailurePattern pattern, Time stabilizeAt,
          OmegaPreStabilization mode = OmegaPreStabilization::kSplitBrain,
          Time rotationPeriod = 97, ProcessId leader = kNoProcess);

  FdValue valueAt(ProcessId p, Time t) const override;
  std::uint64_t epochAt(ProcessId p, Time t) const override;
  std::string name() const override;

  Time stabilizeAt() const { return stabilizeAt_; }
  ProcessId eventualLeader() const { return leader_; }

 private:
  FailurePattern pattern_;
  Time stabilizeAt_;
  OmegaPreStabilization mode_;
  Time rotationPeriod_;
  ProcessId leader_;
};

/// The perfect failure detector P: suspects exactly the crashed processes,
/// with an optional fixed detection lag (strong accuracy + completeness).
class PerfectFd final : public FailureDetector {
 public:
  PerfectFd(FailurePattern pattern, Time detectionLag = 0);

  FdValue valueAt(ProcessId p, Time t) const override;
  std::uint64_t epochAt(ProcessId p, Time t) const override;
  std::string name() const override;

 private:
  FailurePattern pattern_;
  Time lag_;
  /// Sorted detection times (crashTime + lag of every faulty process):
  /// the suspect set at t is exactly the processes whose detection time
  /// is <= t, so its cardinality — one upper_bound — identifies it.
  std::vector<Time> detectAt_;
};

/// The eventually perfect failure detector ◊P: before `stabilizeAt` it may
/// wrongly suspect alive processes (pseudo-random, deterministic in
/// (seed, p, t)); afterwards it suspects exactly the crashed processes.
class EventuallyPerfectFd final : public FailureDetector {
 public:
  EventuallyPerfectFd(FailurePattern pattern, Time stabilizeAt,
                      std::uint64_t seed = 7);

  FdValue valueAt(ProcessId p, Time t) const override;
  std::uint64_t epochAt(ProcessId p, Time t) const override;
  std::string name() const override;

 private:
  FailurePattern pattern_;
  Time stabilizeAt_;
  std::uint64_t seed_;
  /// Sorted crash times of the faulty processes (epoch computation).
  std::vector<Time> crashTimes_;
};

/// Fully scripted history — used by CHT tests to drive exact scenarios.
class ScriptedFd final : public FailureDetector {
 public:
  using Script = std::function<FdValue(ProcessId, Time)>;
  ScriptedFd(Script script, std::string name);

  FdValue valueAt(ProcessId p, Time t) const override;
  std::string name() const override;

 private:
  Script script_;
  std::string name_;
};

/// Derives an Omega history from an eventually-perfect history by the
/// classical rule, leaderFromSuspects (sim/fd_interface.h). Accepts ANY
/// suspicion-style detector whose suspects are sorted and eventually
/// exact — EventuallyPerfectFd, or the loss-robust ◇P variants in
/// fd/robust_fd.h (heartbeat-derived Omega re-stabilizing after loss
/// bursts).
class OmegaFromEventuallyPerfect final : public FailureDetector {
 public:
  explicit OmegaFromEventuallyPerfect(
      std::shared_ptr<const FailureDetector> inner, std::size_t processCount);

  FdValue valueAt(ProcessId p, Time t) const override;
  std::uint64_t epochAt(ProcessId p, Time t) const override;
  std::string name() const override;

 private:
  std::shared_ptr<const FailureDetector> inner_;
  std::size_t processCount_;
};

}  // namespace wfd
