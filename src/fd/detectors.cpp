#include "fd/detectors.h"

#include <algorithm>

#include "common/ensure.h"
#include "common/hash.h"

namespace wfd {
namespace {

/// Stateless pseudo-random hash used where an oracle needs deterministic
/// "noise" as a pure function of (seed, p, t).
constexpr auto mix = splitmix64;

/// Epoch constant for "the value is pinned forever from here on".
constexpr std::uint64_t kSettledEpoch = 1ULL << 62;

/// Sorted crash times (resp. crash + lag) of the faulty processes.
std::vector<Time> sortedCrashTimes(const FailurePattern& pattern, Time lag) {
  std::vector<Time> out;
  for (ProcessId q = 0; q < pattern.size(); ++q) {
    const Time ct = pattern.crashTime(q);
    if (ct != FailurePattern::kNever) out.push_back(ct + lag);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// How many entries of the sorted vector are <= t. Because crash sets
/// only grow, this count uniquely identifies the crashed/detected SET at
/// t, which is what the epoch contract needs.
std::uint64_t countLeq(const std::vector<Time>& sorted, Time t) {
  return static_cast<std::uint64_t>(
      std::upper_bound(sorted.begin(), sorted.end(), t) - sorted.begin());
}

}  // namespace

OmegaFd::OmegaFd(FailurePattern pattern, Time stabilizeAt,
                 OmegaPreStabilization mode, Time rotationPeriod, ProcessId leader)
    : pattern_(std::move(pattern)),
      stabilizeAt_(stabilizeAt),
      mode_(mode),
      rotationPeriod_(rotationPeriod),
      leader_(leader == kNoProcess ? pattern_.lowestCorrect() : leader) {
  WFD_ENSURE(rotationPeriod_ >= 1);
  WFD_ENSURE_MSG(leader_ != kNoProcess, "Omega needs at least one correct process");
  WFD_ENSURE_MSG(pattern_.correct(leader_),
                 "the eventual Omega leader must be a correct process");
}

FdValue OmegaFd::valueAt(ProcessId p, Time t) const {
  WFD_ENSURE(p < pattern_.size());
  FdValue v;
  if (t >= stabilizeAt_) {
    v.leader = leader_;
    return v;
  }
  switch (mode_) {
    case OmegaPreStabilization::kStable:
      v.leader = leader_;
      break;
    case OmegaPreStabilization::kRotating:
      v.leader = static_cast<ProcessId>((t / rotationPeriod_) % pattern_.size());
      break;
    case OmegaPreStabilization::kSplitBrain:
      // Each process trusts a leader derived from its own id, shifting
      // slowly with time — distinct processes disagree almost always.
      v.leader = static_cast<ProcessId>((p + t / rotationPeriod_) % pattern_.size());
      break;
  }
  return v;
}

std::uint64_t OmegaFd::epochAt(ProcessId, Time t) const {
  // Post-stabilization (and kStable throughout) the leader is pinned.
  // Rotating/split-brain leaders are constant within one rotation block;
  // pre-tau blocks stay below kSettledEpoch because t < stabilizeAt_.
  if (t >= stabilizeAt_ || mode_ == OmegaPreStabilization::kStable) {
    return kSettledEpoch;
  }
  return static_cast<std::uint64_t>(t / rotationPeriod_);
}

std::string OmegaFd::name() const {
  return "Omega(tau=" + std::to_string(stabilizeAt_) + ")";
}

PerfectFd::PerfectFd(FailurePattern pattern, Time detectionLag)
    : pattern_(std::move(pattern)),
      lag_(detectionLag),
      detectAt_(sortedCrashTimes(pattern_, lag_)) {}

FdValue PerfectFd::valueAt(ProcessId p, Time t) const {
  WFD_ENSURE(p < pattern_.size());
  FdValue v;
  for (ProcessId q = 0; q < pattern_.size(); ++q) {
    const Time ct = pattern_.crashTime(q);
    if (ct != FailurePattern::kNever && ct + lag_ <= t) v.suspects.push_back(q);
  }
  return v;
}

std::uint64_t PerfectFd::epochAt(ProcessId, Time t) const {
  return countLeq(detectAt_, t);
}

std::string PerfectFd::name() const { return "P(lag=" + std::to_string(lag_) + ")"; }

EventuallyPerfectFd::EventuallyPerfectFd(FailurePattern pattern, Time stabilizeAt,
                                         std::uint64_t seed)
    : pattern_(std::move(pattern)),
      stabilizeAt_(stabilizeAt),
      seed_(seed),
      crashTimes_(sortedCrashTimes(pattern_, 0)) {}

FdValue EventuallyPerfectFd::valueAt(ProcessId p, Time t) const {
  WFD_ENSURE(p < pattern_.size());
  FdValue v;
  for (ProcessId q = 0; q < pattern_.size(); ++q) {
    if (pattern_.crashed(q, t)) {
      v.suspects.push_back(q);
      continue;
    }
    if (t < stabilizeAt_ && q != p) {
      // Pre-stabilization false suspicion, stable over short windows so
      // protocols can observe (and act on) the mistakes.
      const std::uint64_t window = t / 64;
      if (mix(seed_ ^ (p * 0x10001ULL) ^ (q * 0x101ULL) ^ window) % 4 == 0) {
        v.suspects.push_back(q);
      }
    }
  }
  return v;
}

std::uint64_t EventuallyPerfectFd::epochAt(ProcessId, Time t) const {
  const std::uint64_t crashed = countLeq(crashTimes_, t);
  if (t >= stabilizeAt_) return kSettledEpoch + crashed;
  // Pre-tau the value is a function of (p, t / 64, crashed set); fold
  // the window and the crash count injectively (crashed <= n).
  return (t / 64) * (pattern_.size() + 1) + crashed;
}

std::string EventuallyPerfectFd::name() const {
  return "<>P(tau=" + std::to_string(stabilizeAt_) + ")";
}

ScriptedFd::ScriptedFd(Script script, std::string name)
    : script_(std::move(script)), name_(std::move(name)) {
  WFD_ENSURE(static_cast<bool>(script_));
}

FdValue ScriptedFd::valueAt(ProcessId p, Time t) const { return script_(p, t); }

std::string ScriptedFd::name() const { return name_; }

OmegaFromEventuallyPerfect::OmegaFromEventuallyPerfect(
    std::shared_ptr<const FailureDetector> inner, std::size_t processCount)
    : inner_(std::move(inner)), processCount_(processCount) {
  WFD_ENSURE(inner_ != nullptr);
}

FdValue OmegaFromEventuallyPerfect::valueAt(ProcessId p, Time t) const {
  FdValue v;
  v.leader = leaderFromSuspects(inner_->valueAt(p, t).suspects, p, processCount_);
  return v;
}

std::uint64_t OmegaFromEventuallyPerfect::epochAt(ProcessId p, Time t) const {
  // A pure function of the inner sample, so the inner epoch carries over.
  return inner_->epochAt(p, t);
}

std::string OmegaFromEventuallyPerfect::name() const {
  return "Omega<-" + inner_->name();
}

}  // namespace wfd
