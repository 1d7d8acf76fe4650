// ET OB with committed-prefix indications — the extension sketched in the
// paper's Concluding Remarks (§7):
//
//   "such systems sometimes produce indications when a prefix of
//    operations on the replicated service is committed, i.e., is not
//    subject to further changes. A prefix of operations can be committed,
//    e.g., in sufficiently long periods of synchrony, when a majority of
//    correct processes elect the same leader and all incoming and
//    outgoing messages of the leader to the correct majority are
//    delivered within some fixed bound. We believe that such indications
//    could easily be implemented, during the stable periods, on top of
//    ETOB."
//
// Mechanism: a layer over EtobCore (etob_automaton.h), the one
// implementation of Algorithm 5, which owns the update/delta/promote data
// path, d_i and the promote cadence. This file adds only what §7 adds:
//  * followers acknowledge each adopted promote epoch back to its leader;
//  * the leader counts each epoch's distinct voters in its record of what
//    it promoted at that epoch, and prunes records more than 128 epochs
//    old; when a majority acknowledged epoch e, it marks the sequence it
//    promoted at e as committed and broadcasts it (content included);
//  * every process refuses to adopt a promote that contradicts its local
//    committed prefix, and every leader rebuilds its promote sequence to
//    extend any newly learned committed prefix;
//  * CONFLICTING commits (reachable only outside the §7 proviso, when two
//    pre-stabilization leaders each gather a majority of stale
//    acknowledgments) resolve by a deterministic strength join — longer
//    wins, equal lengths tie-break to the lexicographically smaller
//    sequence — so every correct process converges on the same committed
//    prefix and eTOB's eventual agreement survives; the losing process's
//    indication is revoked, which is why commit safety is asserted only
//    for proviso runs (the scenario catalog) and not by the fuzz oracle
//    (docs/FUZZING.md).
//
// The guarantees match §7's proviso: indications are produced only while
// a majority acknowledges the same leader (they stop, rather than lie,
// when the majority is gone — benched in E10), and in the runs covered by
// the proviso a committed prefix is never revoked at any correct process
// (checked by checkCommitSafety over every test run). Omega remains the
// only failure detector input — exactly the paper's "Ω is necessary for
// such systems too".
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.h"
#include "etob/etob_automaton.h"
#include "sim/app_msg.h"
#include "sim/automaton.h"

namespace wfd {

/// Output event: this process learned that the first `length` entries of
/// its delivery sequence are committed (never change again under the §7
/// proviso).
struct CommittedPrefix {
  std::uint64_t length = 0;
};

/// Wire messages (update/delta/promote reuse the ETOB structures).
struct EtobAckMsg {
  std::uint64_t epoch = 0;
};
struct EtobCommitMsg {
  /// The committed sequence, content included (receivers may not have
  /// seen some update messages yet).
  std::vector<AppMsg> prefix;
};

class CommitEtobAutomaton final : public CloneableAutomaton<CommitEtobAutomaton> {
 public:
  explicit CommitEtobAutomaton(EtobConfig config = {}) : core_(config) {}

  void onInput(const StepContext& ctx, const Payload& input, Effects& fx) override;
  void onMessage(const StepContext& ctx, ProcessId from, const Payload& msg,
                 Effects& fx) override;
  void onTimeout(const StepContext& ctx, Effects& fx) override;

  /// BroadcastAutomatonLike.
  const std::vector<MsgId>& delivered() const { return core_.delivered(); }
  const AppMsg* findMessage(MsgId id) const { return core_.findMessage(id); }

  const std::vector<MsgId>& committedPrefix() const { return committed_; }
  /// Conflicting committed prefixes observed (0 under the §7 proviso).
  std::uint64_t commitConflicts() const { return commitConflicts_; }
  /// Promote-learned bodies not yet backed by the causality graph.
  std::size_t adoptedBodyCount() const { return core_.adoptedBodyCount(); }
  const CausalityGraph& causalityGraph() const { return core_.causalityGraph(); }

 private:
  /// What this process promoted at one of its epochs: the first `length`
  /// ids of promote_i as it stood in rebase generation `generation`, and
  /// the distinct processes that acknowledged adopting it so far.
  struct Promoted {
    std::size_t length = 0;
    std::uint64_t generation = 0;
    std::vector<ProcessId> voters;
  };

  void adoptCommit(const std::vector<AppMsg>& prefix, Effects& fx);

  EtobCore core_;
  std::vector<MsgId> committed_;
  /// My promotes by epoch. Epochs more than 128 behind the newest are
  /// pruned, voters included; an ack for a pruned epoch is ignored.
  std::map<std::uint64_t, Promoted> epochSeq_;
  /// Rebases so far. promote_i only grows between rebases, so an epoch of
  /// the current generation promoted a prefix of today's promote_i.
  std::uint64_t generation_ = 0;
  /// promote_i as it stood before each rebase that outstanding epochs
  /// still reference, keyed by the generation it ended.
  std::map<std::uint64_t, std::vector<MsgId>> savedSeqs_;
  std::uint64_t commitConflicts_ = 0;
};

}  // namespace wfd
