// Algorithm 5 (ET OB): eventual total order broadcast directly from Omega,
// correct in ANY environment — the paper's constructive side of Theorem 2
// combined with Theorem 1.
//
// Behaviour per the paper:
//  * broadcastETOB(m, C(m))  -> UpdateCG(m, C(m)); send update(CG_i) to all
//  * on update(CG_j)         -> UnionCG(CG_j); UpdatePromote()
//  * on promote(seq) from p_j-> if Omega_i = p_j then d_i := seq
//  * on local timeout        -> if Omega_i = p_i then send promote(promote_i)
//
// Property provided (completeness/accuracy form), for any environment and
// any valid Omega history:
//  * Completeness (liveness): every message broadcast by a correct
//    process eventually appears in the delivery sequence d_i of every
//    correct process, permanently (ETOB-Validity + ETOB-Agreement).
//  * Accuracy (safety): d_i never contains a message that was not
//    broadcast, never contains duplicates, and always respects the causal
//    order ->_R — even before Omega stabilizes; and eventually (from
//    tau_Omega + Δ_t + Δ_c, Lemma 3) the d_i are stable, identical
//    prefixes of one total order (ETOB-Stability + ETOB-Total-order).
// checkers/tob_checker.h verifies exactly these clauses over a run trace.
//
// Headline properties (benched in E1..E5):
//  (P1) two communication steps per delivery under a stable leader;
//  (P2) strong TOB if Omega is stable from the very beginning;
//  (P3) causal order always, even while Omega outputs differ across
//       processes.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "etob/causality_graph.h"
#include "sim/app_msg.h"
#include "sim/automaton.h"

namespace wfd {

/// ETOB wire messages. A promote carries full message content (the
/// paper's promote(promote_i) is a sequence of messages, content
/// included), so an adopter always knows the content of everything in its
/// d_i even if the corresponding update hasn't reached it yet. `epoch` is
/// a per-sender send counter: links in the model are reliable but not
/// FIFO, so without it a stale (shorter) promote could overwrite a newer
/// one after arriving late — which would break the paper's property (2)
/// (strong TOB under an always-stable leader). The paper's Lemma 3
/// implicitly adopts promotes in send order; the epoch guard realizes
/// that over non-FIFO links. See docs/ARCHITECTURE.md ("The eTOB data
/// path").
///
/// Delta encoding: a plain eTOB leader only ever APPENDS to promote_i, so
/// instead of re-shipping the whole sequence each λ, `seq` carries just
/// the suffix past `baseLen` (the sequence length at the sender's
/// previous promote epoch), and `baseLen == 0` marks a self-contained
/// full snapshot (first promote, empty previous sequence, or a §7 rebase).
/// Receivers reconstruct per-sender sequences in epoch order
/// (PromoteChain below); a delta whose base epoch hasn't arrived yet is
/// buffered, never dropped — reliable links guarantee the chain fills.
struct EtobPromoteMsg {
  std::vector<AppMsg> seq;
  std::uint64_t epoch = 0;
  std::uint64_t baseLen = 0;
};
/// The paper's update(CG_i). It carries the sender's whole graph as a
/// shared snapshot (CausalityGraph::Snapshot) rather than a copy: a
/// receiver replays only the changes it has not merged yet, and the wire
/// weight is still that of the whole graph, cg_.approxWeight() at send
/// time.
struct EtobUpdateMsg {
  CausalityGraph::Snapshot cg;
};
/// Delta update: one new message plus its dependency ids. The paper's
/// update(CG_i) carries the whole graph; since a broadcast step is atomic
/// (every copy enqueued at once) a per-message delta reconstructs the
/// same CG at every receiver — the E9 ablation measures the weight gap.
struct EtobDeltaMsg {
  AppMsg msg;
  std::vector<MsgId> deps;
};

/// Per-sender reconstruction of a leader's promote sequence from
/// delta-encoded promotes. `epoch`/`ids` is the newest contiguously
/// reconstructed prefix of the sender's promote history; out-of-order
/// deltas wait in `pending` until the promote they extend arrives
/// (promote epochs from one sender are contiguous — the counter advances
/// exactly once per sent promote). `pending` holds at most one promote
/// per epoch, in ascending epoch order, and keeps its capacity as it
/// drains, so parking a promote with an empty suffix (a refresh delta)
/// allocates nothing once the chain has parked that many before. Every
/// pending epoch is newer than `epoch`, and the oldest pending one is a
/// delta past a gap.
struct PromoteChain {
  std::uint64_t epoch = 0;
  std::vector<MsgId> ids;
  std::vector<EtobPromoteMsg> pending;
};

/// Ingests one promote message into the per-sender chain. A promote that
/// applies at once — older than everything pending, and a full snapshot
/// or the delta at `chain.epoch + 1` — is spliced straight from `msg`,
/// then every pending epoch that becomes reconstructible is spliced too
/// (a full snapshot resets the chain and may jump gaps). Any other
/// promote is copied into `pending`; a full snapshot behind an older
/// pending gap waits there. Message bodies carried in spliced suffixes
/// that the causality graph does not know yet are stashed into
/// `adoptedBodies` so every reconstructed sequence stays fully resolvable
/// (rsm::Replica hard-requires content for every delivered id). Returns
/// true if the chain advanced.
bool advancePromoteChain(PromoteChain& chain, const EtobPromoteMsg& msg,
                         const CausalityGraph& cg,
                         std::unordered_map<MsgId, AppMsg>& adoptedBodies);

struct EtobConfig {
  CgEdgeMode edgeMode = CgEdgeMode::kFullPaper;
  /// If true, broadcasts EtobDeltaMsg instead of the paper's full-graph
  /// update(CG_i). Behaviour-preserving; weight-saving.
  bool deltaUpdates = false;
  /// Leader promote cadence: 1 = the paper's "on every local timeout".
  /// N > 1 = promote when the sequence changed, when leadership was just
  /// (re)acquired, or at least every N λ-steps (the refresh keeps the
  /// convergence bound at τ_Ω + N·Δ_t + Δ_c).
  std::uint64_t promoteRefreshEvery = 1;
};

/// Algorithm 5 itself: d_i, CG_i with its incrementally maintained
/// promote_i, the per-sender promote chains and the leader's promote
/// cadence. EtobAutomaton routes events straight into it; the §7 layer
/// CommitEtobAutomaton (commit_etob.h) adds its guard, acks and rebases
/// between the steps below. A plain value, so CloneableAutomaton's
/// copy-clone copies it.
class EtobCore {
 public:
  explicit EtobCore(EtobConfig config) : config_(config), cg_(config.edgeMode) {}

  /// broadcastETOB(m, C(m)): UpdateCG(m, C(m)), then send update(CG_i)
  /// (or the one-message delta).
  void onInput(const Payload& input, Effects& fx);
  /// on update(CG_j) or a delta: UnionCG; UpdatePromote. Returns false if
  /// `msg` is neither.
  bool ingestUpdate(const Payload& msg);
  /// First half of "on promote(seq) from p_j": splices the promote into
  /// p_j's chain and returns the chain if Omega_i = p_j and its head is
  /// newer than the last one adopted from p_j; nullptr otherwise.
  const PromoteChain* advancePromote(const StepContext& ctx, ProcessId from,
                                     const EtobPromoteMsg& msg);
  /// Second half: d_i := the chain's sequence.
  void adopt(ProcessId from, const PromoteChain& chain, Effects& fx);
  /// on local timeout: if Omega_i = p_i, send promote(promote_i) at the
  /// configured cadence. Skipped while a promoted body is unknown. Returns
  /// true iff a promote was sent; its epoch is promoteEpoch().
  bool promote(const StepContext& ctx, Effects& fx);
  /// Learns `prefix` (whose ids are `ids`) and resets promote_i to `ids`
  /// extended with everything promotable; the next promote is a full
  /// snapshot.
  void rebase(const std::vector<AppMsg>& prefix, const std::vector<MsgId>& ids);
  /// d_i := seq; an unchanged seq sets no d_i in fx.
  void deliver(const std::vector<MsgId>& seq, Effects& fx);

  /// Content from CG_i or from a received promote; nullptr if unknown.
  const AppMsg* findMessage(MsgId id) const;
  const std::vector<MsgId>& delivered() const { return d_; }
  const std::vector<MsgId>& promoteSequence() const { return cg_.promoteSequence(); }
  const CausalityGraph& causalityGraph() const { return cg_; }
  std::size_t adoptedBodyCount() const { return adoptedBodies_.size(); }
  std::uint64_t promoteEpoch() const { return promoteEpoch_; }

 private:
  EtobConfig config_;
  std::vector<MsgId> d_;  // output variable d_i
  CausalityGraph cg_;     // CG_i (also maintains promote_i incrementally)
  /// Bodies learned from received promote sequences whose update messages
  /// haven't arrived yet (the CG itself stays edge-consistent). Entries
  /// are pruned as soon as the body reaches cg_ via update/delta.
  std::unordered_map<MsgId, AppMsg> adoptedBodies_;
  /// Per-sender promote counters: own (outgoing) and the highest adopted
  /// from each peer, plus the per-sender delta reconstruction chains.
  /// Both vectors are indexed by sender, grown to the highest one heard.
  std::uint64_t promoteEpoch_ = 0;
  std::vector<std::uint64_t> adoptedEpoch_;
  std::vector<PromoteChain> chains_;
  /// promote_i's length at the last sent promote: the delta base and the
  /// cadence's "changed since" test. Both hold only until a rebase, since
  /// promote_i only grows between rebases.
  std::size_t lastSentLen_ = 0;
  bool rebased_ = false;
  std::uint64_t lambdasSincePromote_ = 0;
  bool wasLeader_ = false;
};

/// Process-local ET OB automaton.
class EtobAutomaton final : public CloneableAutomaton<EtobAutomaton> {
 public:
  explicit EtobAutomaton(EtobConfig config = {}) : core_(config) {}

  void onInput(const StepContext& ctx, const Payload& input, Effects& fx) override;
  void onMessage(const StepContext& ctx, ProcessId from, const Payload& msg,
                 Effects& fx) override;
  void onTimeout(const StepContext& ctx, Effects& fx) override;

  /// Content of a message this process knows (from its causality graph or
  /// from a received promote sequence); nullptr if unknown. Part of the
  /// BroadcastAutomatonLike concept used by the ETOB->EC transformation.
  const AppMsg* findMessage(MsgId id) const { return core_.findMessage(id); }

  /// Test/bench introspection.
  const std::vector<MsgId>& delivered() const { return core_.delivered(); }
  const std::vector<MsgId>& promoteSequence() const {
    return core_.promoteSequence();
  }
  const CausalityGraph& causalityGraph() const { return core_.causalityGraph(); }
  /// Promote-learned bodies not yet backed by the causality graph.
  std::size_t adoptedBodyCount() const { return core_.adoptedBodyCount(); }

 private:
  EtobCore core_;
};

}  // namespace wfd
