// Verifier for committed-prefix indications (the §7 extension):
// once a process outputs CommittedPrefix{L} at time t, the first L
// entries of its delivery sequence as of t must never change for the
// rest of the run.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "sim/failure_pattern.h"
#include "sim/trace.h"

namespace wfd {

struct CommitCheckReport {
  /// Total CommittedPrefix indications across correct processes.
  std::uint64_t indications = 0;
  /// Largest committed length per the final indications (min over correct
  /// processes that produced any — 0 if none).
  std::uint64_t committedLenAllCorrect = 0;
  /// Indications whose prefix later changed (must be 0 under §7's proviso).
  std::uint64_t revokedCommits = 0;
  std::vector<std::string> errors;

  bool safetyOk() const { return revokedCommits == 0; }
};

/// Each indication is judged against the d_i snapshots around it, so the
/// trace must keep them: a trace recorded with keepDeliverySnapshots =
/// false throws InvariantError.
CommitCheckReport checkCommitSafety(const Trace& trace,
                                    const FailurePattern& pattern);

}  // namespace wfd
