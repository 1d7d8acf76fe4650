// Verifiers for the broadcast abstractions' specifications over a run
// trace:
//   strong TOB — Validity, No-creation, No-duplication, Agreement,
//                Stability (from time 0), Total-order (from time 0);
//   ETOB       — the same four core properties plus *eventual* Stability
//                and Total-order: the checker computes the earliest
//                witness τ̂ after which both hold for the rest of the run;
//   Causal     — TOB-Causal-Order with respect to declared dependencies.
#pragma once

#include <string>
#include <vector>

#include "checkers/broadcast_log.h"
#include "sim/failure_pattern.h"
#include "sim/trace.h"

namespace wfd {

/// Result of checking a broadcast run.
struct BroadcastCheckReport {
  bool validityOk = true;      // correct origins stably deliver their own msgs
  bool agreementOk = true;     // stably delivered at one correct => at all
  bool noCreationOk = true;    // only broadcast messages ever appear
  bool noDuplicationOk = true; // no id twice in any observed d_i
  bool causalOrderOk = true;   // declared deps respected in every snapshot

  /// Earliest time from which every correct process's d_i only grows by
  /// suffix extension (0 if that held from the start).
  Time tauStability = 0;
  /// Earliest time from which all correct processes' d_i agree on the
  /// relative order of common messages (0 if from the start).
  Time tauTotalOrder = 0;
  /// max(tauStability, tauTotalOrder) — the run's observed ETOB τ̂.
  Time tau = 0;

  /// Strong TOB = all core properties + τ̂ == 0.
  bool strongTobOk() const {
    return coreOk() && tau == 0;
  }
  /// ETOB = core properties (τ is finite by construction in a finite run;
  /// benches compare τ̂ against the paper's τ_Ω + Δ_t + Δ_c bound).
  bool coreOk() const {
    return validityOk && agreementOk && noCreationOk && noDuplicationOk;
  }

  std::vector<std::string> errors;
};

/// Checks a run. Only correct processes are constrained (the paper's
/// properties all quantify over correct processes). No-creation,
/// No-duplication, Total-order and Causal-order are judged on every d_i
/// snapshot, so the trace must keep them: a trace recorded with
/// keepDeliverySnapshots = false throws InvariantError.
BroadcastCheckReport checkBroadcastRun(const Trace& trace, const BroadcastLog& log,
                                       const FailurePattern& pattern);

}  // namespace wfd
