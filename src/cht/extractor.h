// The reduction algorithm T_{D->Omega} (Appendix B.7, Figure 6,
// generalized to eventual consensus per Section 4).
//
// Each process runs two tasks:
//  * communication (Figure 1): every λ-step it queries its failure
//    detector module D, appends the sample to its DAG G_p, and gossips
//    the DAG to everyone; received DAGs are merged.
//  * computation (Figure 6): periodically it analyses the runs of the
//    target EC algorithm A simulated over G_p's stimuli — locating the
//    first k-bivalent vertex (Algorithm 3) and the smallest decision
//    gadget below it — and outputs the gadget's deciding process as its
//    current Omega estimate.
//
// Once the correct processes' DAGs converge (sampling is capped, so they
// do), the analysis is a deterministic function of the common DAG: all
// correct processes stabilize on the same correct leader — Omega emulated.
//
// Property provided (completeness/accuracy form): the stream of
// LeaderEstimate outputs is a valid Omega history for the run's failure
// pattern —
//  * Omega-Completeness: eventually no correct process's estimate is a
//    crashed process (crashed candidates stop being deciding processes of
//    any minimal gadget once the DAGs reflect their silence);
//  * Omega-Accuracy: eventually every correct process outputs the SAME
//    correct process forever (the estimate is a deterministic function of
//    the converged common DAG).
// This holds for ANY input detector D whose histories let the target
// algorithm A solve EC — that is exactly Theorem 2's necessity direction.
#pragma once

#include <cstdint>

#include "cht/fd_dag.h"
#include "cht/simulation_tree.h"
#include "common/types.h"
#include "ec/omega_ec.h"
#include "sim/automaton.h"

namespace wfd {

/// Target factory for the canonical case: A = Algorithm 4 (EC from Omega),
/// reading ctx.fd.leader directly.
inline TargetFactory omegaEcTarget() {
  return [](ProcessId, std::size_t) { return std::make_unique<OmegaEcAutomaton>(); };
}

/// Algorithm 4 over ◊P-style histories: every step hands Algorithm 4 the
/// leader that leaderFromSuspects derives from the sampled suspect list.
class SuspectBasedEcAutomaton final
    : public CloneableAutomaton<SuspectBasedEcAutomaton> {
 public:
  void onInput(const StepContext& ctx, const Payload& input, Effects& fx) override {
    ec_.onInput(withLeader(ctx), input, fx);
  }
  void onMessage(const StepContext& ctx, ProcessId from, const Payload& msg,
                 Effects& fx) override {
    ec_.onMessage(withLeader(ctx), from, msg, fx);
  }
  void onTimeout(const StepContext& ctx, Effects& fx) override {
    ec_.onTimeout(withLeader(ctx), fx);
  }

 private:
  static StepContext withLeader(const StepContext& ctx) {
    StepContext out = ctx;
    out.fd.leader = leaderFromSuspects(ctx.fd.suspects, ctx.self, ctx.processCount);
    return out;
  }

  OmegaEcAutomaton ec_;
};

/// Target factory for D = ◊P-style histories: A = SuspectBasedEcAutomaton.
/// Demonstrates that the extractor works for ANY D solving EC, not just
/// Omega itself.
inline TargetFactory suspectBasedEcTarget() {
  return [](ProcessId, std::size_t) {
    return std::make_unique<SuspectBasedEcAutomaton>();
  };
}

/// Output event: this process's current emulated Omega value (emitted on
/// every change; the live estimate is the last one output).
struct LeaderEstimate {
  ProcessId leader = kNoProcess;
};

struct ChtConfig {
  TreeLimits limits;
  /// Own-sample cap: after this many local queries the process stops
  /// growing its DAG (bounding the limit DAG so extraction stabilizes in
  /// finite runs; the paper's limit argument needs no cap).
  std::size_t maxOwnSamples = 48;
  /// λ-steps between extractions (tree analysis is the expensive part).
  std::uint64_t extractEvery = 16;
};

class ChtExtractorAutomaton final
    : public CloneableAutomaton<ChtExtractorAutomaton> {
 public:
  ChtExtractorAutomaton(TargetFactory factory, std::size_t processCount,
                        ChtConfig config);

  void onMessage(const StepContext& ctx, ProcessId from, const Payload& msg,
                 Effects& fx) override;
  void onTimeout(const StepContext& ctx, Effects& fx) override;

  const FdDag& dag() const { return dag_; }
  ProcessId currentEstimate() const { return estimate_; }
  std::uint64_t extractionsRun() const { return extractions_; }

 private:
  void extract(const StepContext& ctx, Effects& fx);

  TargetFactory factory_;
  std::size_t processCount_;
  ChtConfig config_;
  FdDag dag_;
  std::size_t ownSamples_ = 0;
  bool dagChangedSinceGossip_ = false;
  std::uint64_t lambdasSinceExtract_ = 0;
  ProcessId estimate_ = kNoProcess;
  std::uint64_t extractions_ = 0;
};

}  // namespace wfd
