// The classical strongly consistent baseline: total order broadcast via a
// sequence of consensus instances [3], each deciding a batch of messages.
//
// This is the protocol the paper's ETOB is compared against: it satisfies
// ALL six TOB properties (stability and total order from time 0), but
// requires majority quorums (it stalls when a majority crashes — benched
// in E2) and three communication steps per delivery (benched in E1).
#pragma once

#include <map>
#include <set>
#include <vector>

#include "common/types.h"
#include "consensus/multi_paxos.h"
#include "sim/app_msg.h"
#include "sim/app_msg_codec.h"
#include "sim/automaton.h"

namespace wfd {

/// Client submission, broadcast to everyone so any (future) leader can
/// include the message in a batch.
struct TobSubmitMsg {
  AppMsg msg;
};

class TobViaConsensusAutomaton final
    : public CloneableAutomaton<TobViaConsensusAutomaton> {
 public:
  TobViaConsensusAutomaton(ProcessId self, std::size_t processCount);

  void onInput(const StepContext& ctx, const Payload& input, Effects& fx) override;
  void onMessage(const StepContext& ctx, ProcessId from, const Payload& msg,
                 Effects& fx) override;
  void onTimeout(const StepContext& ctx, Effects& fx) override;

  /// BroadcastAutomatonLike.
  const std::vector<MsgId>& delivered() const { return d_; }
  const AppMsg* findMessage(MsgId id) const;

  const MultiPaxosEngine& engine() const { return engine_; }

 private:
  void flushOutbox(MultiPaxosEngine::Outbox& out, Effects& fx);
  void rebuildDelivered(Effects& fx);

  MultiPaxosEngine engine_;
  /// Every message this process knows: each submission it received, and
  /// each delivered one (rebuildDelivered re-inserts them). Nothing is
  /// erased, so it grows with the run's history and holds all of d_.
  /// findMessage reads it.
  std::map<MsgId, AppMsg> pending_;
  std::map<Instance, std::vector<AppMsg>> batches_; // decided batches
  std::vector<MsgId> d_;  // contiguous delivery sequence, no duplicates
};

}  // namespace wfd
