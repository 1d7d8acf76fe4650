#include "tob/tob_via_consensus.h"

#include <unordered_set>

namespace wfd {

TobViaConsensusAutomaton::TobViaConsensusAutomaton(ProcessId self,
                                                   std::size_t processCount)
    : engine_(self, processCount) {}

void TobViaConsensusAutomaton::onInput(const StepContext&, const Payload& input,
                                       Effects& fx) {
  const auto* bcast = input.as<BroadcastInput>();
  if (bcast == nullptr) return;
  fx.broadcast(Payload::of(TobSubmitMsg{bcast->msg}));
}

void TobViaConsensusAutomaton::onMessage(const StepContext&, ProcessId from,
                                         const Payload& msg, Effects& fx) {
  if (const auto* submit = msg.as<TobSubmitMsg>()) {
    pending_.emplace(submit->msg.id, submit->msg);
    return;
  }
  MultiPaxosEngine::Outbox out;
  if (engine_.onMessage(from, msg, out)) flushOutbox(out, fx);
}

void TobViaConsensusAutomaton::onTimeout(const StepContext& ctx, Effects& fx) {
  MultiPaxosEngine::Outbox out;
  engine_.tick(ctx.fd.leader == ctx.self, out);
  if (engine_.canPropose()) {
    // Propose the lowest undecided instance. Only one in flight at a
    // time: simple, and latency-equivalent to pipelining for the
    // experiments (batches absorb throughput).
    const Instance next = engine_.contiguousDecided() + 1;
    // d_ ⊆ pending_ and d_ has no duplicates, so equal sizes mean every
    // known message is delivered: the batch below would be empty, and an
    // idle leader skips the O(history) scan.
    if (!engine_.proposalInFlight(next) && !engine_.decided(next) &&
        pending_.size() != d_.size()) {
      // Causal gating: a message joins the batch only once every declared
      // dependency is already delivered or precedes it in this batch, so
      // the consensus order never inverts C(m). The fixpoint loop batches
      // whole chains submitted together in dependency order; a message
      // whose dependency's submission has not reached this leader yet is
      // held back (submissions are broadcast over reliable links, so it
      // is only deferred, never dropped).
      std::unordered_set<MsgId> satisfied(d_.begin(), d_.end());
      std::vector<AppMsg> batch;
      bool progress = true;
      while (progress) {
        progress = false;
        for (const auto& [id, m] : pending_) {
          if (satisfied.contains(id)) continue;
          bool ready = true;
          for (MsgId dep : m.causalDeps) {
            if (!satisfied.contains(dep)) {
              ready = false;
              break;
            }
          }
          if (ready) {
            batch.push_back(m);
            satisfied.insert(id);
            progress = true;
          }
        }
      }
      if (!batch.empty()) {
        engine_.propose(next, encodeAppMsgSeq(batch), out);
      }
    }
  }
  flushOutbox(out, fx);
}

void TobViaConsensusAutomaton::flushOutbox(MultiPaxosEngine::Outbox& out,
                                           Effects& fx) {
  for (auto& [to, payload] : out.sends) {
    if (to == kBroadcast) {
      fx.broadcast(std::move(payload));
    } else {
      fx.send(to, std::move(payload));
    }
  }
  bool newDecision = false;
  for (auto& [instance, value] : out.decisions) {
    batches_[instance] = decodeAppMsgSeq(value);
    newDecision = true;
  }
  if (newDecision) rebuildDelivered(fx);
}

void TobViaConsensusAutomaton::rebuildDelivered(Effects& fx) {
  std::vector<MsgId> seq;
  std::unordered_set<MsgId> seen;
  for (Instance l = 1; batches_.contains(l); ++l) {
    for (const AppMsg& m : batches_.at(l)) {
      // A message may be re-proposed by a new leader that had not learned
      // an earlier decided batch; deliver first occurrence only.
      if (seen.insert(m.id).second) {
        seq.push_back(m.id);
        pending_.emplace(m.id, m);  // ensure content is known for lookup
      }
    }
  }
  if (seq != d_) {
    d_ = std::move(seq);
    fx.deliverSequence(d_);
  }
}

const AppMsg* TobViaConsensusAutomaton::findMessage(MsgId id) const {
  auto it = pending_.find(id);
  return it == pending_.end() ? nullptr : &it->second;
}

}  // namespace wfd
