// Simulated runs of the target EC algorithm A over DAG stimuli — the
// simulation tree Υ of Section 4, with per-instance k-tags and the
// bivalent-vertex / decision-gadget machinery of Algorithm 3 and
// Appendix B (Figures 3–6), made executable.
//
// The proof manipulates the infinite limit tree; the executable version
// works on bounded prefixes with two standard finitizations, both
// documented in DESIGN.md:
//  * k-tags are approximated by three deterministic "probe" completions
//    from a vertex — all-0 inputs, all-1 inputs, and mixed inputs. By
//    EC-Validity/Termination the forced probes realize the paper's
//    observation (*) (every vertex has descendants deciding 0 and
//    descendants deciding 1), and the mixed probe witnesses ⊥ exactly
//    when instance k can still disagree under the sampled FD history.
//  * The gadget search walks the canonical bivalent path (Figure 4) and
//    tests fork/hook patterns at each node (Figure 5) instead of
//    materializing the full subtree.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "cht/fd_dag.h"
#include "common/types.h"
#include "sim/automaton.h"

namespace wfd {

/// Builds one fresh instance of the target algorithm A(p). A must be an
/// EC implementation: it consumes ProposeInput inputs and emits
/// EcDecision outputs, using ctx.fd as its failure-detector module.
using TargetFactory =
    std::function<std::unique_ptr<Automaton>(ProcessId self, std::size_t n)>;

/// Bounds for the finite exploration.
struct TreeLimits {
  Instance maxInstance = 4;       // explore instances 1..maxInstance
  std::size_t probeSteps = 400;   // step budget per probe completion
  std::size_t walkSteps = 64;     // gadget-walk budget (tree depth)
  std::size_t hookSteps = 64;     // frozen-walk budget for hook location
};

/// One simulated step (the schedule alphabet): process q performs an
/// action using DAG vertex `vertexIdx` as its failure-detector query.
enum class StepAction : std::uint8_t {
  kProposeZero,
  kProposeOne,
  kDeliverOldest,
  kLambda,
};

struct StepDescriptor {
  ProcessId proc = kNoProcess;
  std::size_t vertexIdx = 0;
  StepAction action = StepAction::kLambda;
  /// For kDeliverOldest: uid of the consumed message, for hook-step
  /// identity across configurations.
  std::uint64_t msgUid = 0;
};

/// A configuration of the simulated system: automata states, in-flight
/// messages, per-process driver bookkeeping and the response history of
/// the schedule that produced it.
class SimConfigState {
 public:
  SimConfigState(const TargetFactory& factory, std::size_t processCount);
  SimConfigState(const SimConfigState& other);
  SimConfigState& operator=(const SimConfigState&) = delete;
  SimConfigState(SimConfigState&&) = default;
  SimConfigState& operator=(SimConfigState&&) = default;

  std::size_t processCount() const { return procs_.size(); }
  bool pendingPropose(ProcessId p) const { return procs_[p].pendingPropose; }
  Instance proposedUpTo(ProcessId p) const { return procs_[p].proposed; }
  std::uint64_t lastDagK(ProcessId p) const { return procs_[p].lastDagK; }
  bool hasPendingMessage(ProcessId p) const;
  std::uint64_t oldestMessageUid(ProcessId p) const;
  std::optional<std::size_t> lastVertex() const { return lastVertex_; }
  std::size_t depth() const { return depth_; }

  /// Values responded for instance k in this schedule (binary: 0/1).
  const std::set<std::uint64_t>& responses(Instance k) const;
  /// True iff two different values were returned for instance k.
  bool disagreement(Instance k) const;
  /// True iff every process in `procs` has responded to instance k.
  bool allResponded(Instance k, const std::vector<ProcessId>& procs) const;
  /// k-enabledness: k == 1, or some response to k-1 exists in the schedule.
  bool enabled(Instance k) const {
    return k == 1 || !responses(k - 1).empty();
  }

  /// Applies one step (must be eligible; see eligibleVertex). maxInstance
  /// stops the proposal ladder.
  void apply(const FdDag& dag, const StepDescriptor& step, Instance maxInstance);

  /// Advances q's query cursor so only vertices with k > minK remain
  /// eligible — the "skewed" probes use this to simulate schedules where
  /// q takes its steps late (paths may skip vertices).
  void advanceDagCursor(ProcessId q, std::uint64_t minK);

 private:
  struct Proc {
    std::unique_ptr<Automaton> automaton;
    Instance proposed = 0;      // last instance proposed by this process
    bool pendingPropose = true; // must propose (proposed+1) next
    std::uint64_t lastDagK = 0; // last DAG query index consumed
  };
  struct Pending {
    ProcessId to = kNoProcess;
    ProcessId from = kNoProcess;
    Payload payload;
    std::uint64_t uid = 0;
  };

  std::vector<Proc> procs_;
  std::vector<Pending> buffer_;
  std::uint64_t nextUid_ = 1;
  std::size_t depth_ = 0;
  std::optional<std::size_t> lastVertex_;
  std::map<Instance, std::set<std::uint64_t>> responses_;
  std::map<Instance, std::set<ProcessId>> respondedBy_;
  std::set<Instance> disagreement_;
};

/// k-tag of a vertex: which of {0, 1, ⊥} were observed in (probed)
/// descendants (Section 4's valency tags).
struct KTag {
  bool has0 = false;
  bool has1 = false;
  bool hasBot = false;

  bool bivalent() const { return has0 && has1 && !hasBot; }
  bool univalent() const { return (has0 != has1) && !hasBot; }
  std::uint64_t value() const { return has1 ? 1 : 0; }  // for univalent tags
  bool invalid() const { return hasBot; }
};

/// A located decision gadget (fork or hook, Figure 3).
struct DecisionGadget {
  enum class Kind { kFork, kHook } kind = Kind::kFork;
  ProcessId decidingProcess = kNoProcess;
  std::size_t pivotDepth = 0;
  Instance instance = 0;
};

/// The executable reduction core shared by every process: deterministic
/// functions of (DAG, limits), so processes with equal DAGs compute equal
/// results — the convergence the CHT proof needs.
class TreeAnalysis {
 public:
  TreeAnalysis(const FdDag& dag, TargetFactory factory, std::size_t processCount,
               TreeLimits limits);

  /// Probe-approximated k-tag of a configuration.
  KTag tag(const SimConfigState& config, Instance k) const;

  /// Algorithm 3 (executable form): advance the canonical schedule until
  /// an instance k <= maxInstance with a bivalent configuration is found.
  /// Returns the configuration and k, or nullopt within the bounds.
  std::optional<std::pair<SimConfigState, Instance>> findBivalent() const;

  /// Figures 4+5: from a k-bivalent configuration, walk the bivalent path
  /// and locate a fork or hook; returns its deciding process.
  std::optional<DecisionGadget> findGadget(const SimConfigState& start,
                                           Instance k) const;

  /// Full extraction: bivalent vertex, then gadget, then deciding process.
  std::optional<ProcessId> extractLeader() const;

 private:
  struct ProbeOutcome {
    std::set<std::uint64_t> values;
    bool disagreement = false;
  };

  /// Canonical next step for process q in `config` under an input policy
  /// (what value q proposes if a proposal is pending); nullopt if q has
  /// no eligible vertex left. `preferLambda` forces a λ-step over a
  /// delivery — the fair-completion policy alternates deliver/λ so a
  /// process can decide (Algorithm 4 decides on λ-steps) right after
  /// consuming the leader's promote, instead of draining its whole queue
  /// first and exhausting the finite DAG path budget.
  std::optional<StepDescriptor> canonicalStep(const SimConfigState& config,
                                              ProcessId q,
                                              std::uint64_t proposeValue,
                                              bool preferLambda = false) const;

  /// Smallest eligible vertex for q (canonical order), optionally
  /// skipping vertices whose FdValue equals `differentFrom`.
  std::optional<std::size_t> eligibleVertex(
      const SimConfigState& config, ProcessId q,
      const FdValue* differentFrom = nullptr) const;

  /// Runs the canonical fair completion from `config` until instance k is
  /// answered by all active processes (or budget). `inputOf(p)` chooses
  /// proposal values. If `lateProc` is a valid process, that process only
  /// consumes vertices with query index > lateMinK — the skewed
  /// completions that witness ⊥ when early and late failure-detector
  /// samples lead to different deciders (e.g. a leader that crashed
  /// mid-history).
  ProbeOutcome probe(const SimConfigState& config, Instance k,
                     const std::function<std::uint64_t(ProcessId)>& inputOf,
                     ProcessId lateProc = kNoProcess,
                     std::uint64_t lateMinK = 0) const;

  /// Child steps of a configuration in canonical order (the tree edges).
  std::vector<StepDescriptor> childSteps(const SimConfigState& config) const;

  const FdDag& dag_;
  DagReach reach_;
  TargetFactory factory_;
  std::size_t processCount_;
  TreeLimits limits_;
  /// Processes that still have usable samples in the DAG (others have
  /// crashed or fallen silent; simulated fair paths ignore them).
  std::vector<ProcessId> active_;
  /// Per-process vertex indices in canonical (k, q, d) order — the
  /// eligibility scans' fast path.
  std::vector<std::vector<std::size_t>> perProc_;
  /// Highest query index per process (skew probes start past the half).
  std::vector<std::uint64_t> maxK_;
};

}  // namespace wfd
