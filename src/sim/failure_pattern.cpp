#include "sim/failure_pattern.h"

#include <algorithm>

#include "common/ensure.h"

namespace wfd {

FailurePattern::FailurePattern(std::size_t n) : crashTimes_(n, kNever) {
  WFD_ENSURE_MSG(n >= 2, "the paper's model requires n >= 2");
}

FailurePattern FailurePattern::noFailures(std::size_t n) { return FailurePattern(n); }

FailurePattern FailurePattern::crashesAt(
    std::size_t n, std::vector<std::pair<ProcessId, Time>> crashes) {
  FailurePattern fp(n);
  for (const auto& [p, t] : crashes) fp.setCrash(p, t);
  return fp;
}

void FailurePattern::setCrash(ProcessId p, Time t) {
  WFD_ENSURE(p < crashTimes_.size());
  crashTimes_[p] = t;
}

Time FailurePattern::crashTime(ProcessId p) const {
  WFD_ENSURE(p < crashTimes_.size());
  return crashTimes_[p];
}

std::vector<ProcessId> FailurePattern::correctSet() const {
  std::vector<ProcessId> out;
  for (ProcessId p = 0; p < crashTimes_.size(); ++p) {
    if (correct(p)) out.push_back(p);
  }
  return out;
}

std::vector<ProcessId> FailurePattern::faultySet() const {
  std::vector<ProcessId> out;
  for (ProcessId p = 0; p < crashTimes_.size(); ++p) {
    if (faulty(p)) out.push_back(p);
  }
  return out;
}

std::vector<ProcessId> FailurePattern::aliveAt(Time t) const {
  std::vector<ProcessId> out;
  for (ProcessId p = 0; p < crashTimes_.size(); ++p) {
    if (!crashed(p, t)) out.push_back(p);
  }
  return out;
}

ProcessId FailurePattern::lowestCorrect() const {
  for (ProcessId p = 0; p < crashTimes_.size(); ++p) {
    if (correct(p)) return p;
  }
  return kNoProcess;
}

bool FailurePattern::hasCorrectMajority() const {
  return correctSet().size() * 2 > crashTimes_.size();
}

Time FailurePattern::lastCrashTime() const {
  Time last = 0;
  for (Time t : crashTimes_) {
    if (t != kNever) last = std::max(last, t);
  }
  return last;
}

FailurePattern Environments::minorityCrash(std::size_t n, Time when) {
  return staggeredCrashes(n, (n - 1) / 2, when, 0);
}

FailurePattern Environments::majorityCrash(std::size_t n, Time when) {
  // Crash ceil(n/2) processes so the correct set is a strict minority
  // whenever n >= 2 (for odd n this leaves floor(n/2) correct).
  return staggeredCrashes(n, (n + 1) / 2, when, 0);
}

FailurePattern Environments::staggeredCrashes(std::size_t n, std::size_t count,
                                              Time firstAt, Time spacing) {
  WFD_ENSURE(count < n);
  FailurePattern fp(n);
  for (std::size_t i = 0; i < count; ++i) {
    // Crash highest ids first so the lowest-id process stays correct and
    // can serve as the eventual Omega leader in default configurations.
    fp.setCrash(n - 1 - i, firstAt + spacing * i);
  }
  return fp;
}

}  // namespace wfd
