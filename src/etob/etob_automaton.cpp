#include "etob/etob_automaton.h"

#include <algorithm>

#include "common/ensure.h"

namespace wfd {

namespace {

/// Splices promote `p` onto the chain: a full snapshot replaces the
/// sequence, a delta (which must extend the chain's head) appends to it.
void splicePromote(PromoteChain& chain, const EtobPromoteMsg& p,
                   const CausalityGraph& cg,
                   std::unordered_map<MsgId, AppMsg>& adoptedBodies) {
  if (p.baseLen == 0) {
    chain.ids.clear();
  } else {
    WFD_ENSURE_MSG(chain.ids.size() == p.baseLen,
                   "promote delta base length mismatch");
  }
  chain.ids.reserve(chain.ids.size() + p.seq.size());
  for (const AppMsg& m : p.seq) {
    chain.ids.push_back(m.id);
    // Stash content the causality graph doesn't know yet so every id in
    // the reconstructed sequence stays resolvable via findMessage.
    if (!cg.contains(m.id)) adoptedBodies.emplace(m.id, m);
  }
  chain.epoch = p.epoch;
}

}  // namespace

bool advancePromoteChain(PromoteChain& chain, const EtobPromoteMsg& msg,
                         const CausalityGraph& cg,
                         std::unordered_map<MsgId, AppMsg>& adoptedBodies) {
  if (msg.epoch <= chain.epoch) return false;  // stale duplicate
  // Between calls every pending epoch is newer than the chain's head and
  // the oldest pending one is a delta past a gap, so `msg` can apply only
  // if it is older than everything pending. A delta extends exactly the
  // sender's previous promote; epochs are contiguous per sender, so a gap
  // means that promote is still in flight (reliable links guarantee it
  // arrives). A full snapshot behind an older pending gap waits too.
  std::vector<EtobPromoteMsg>& pending = chain.pending;
  const bool first = pending.empty() || msg.epoch < pending.front().epoch;
  if (!first || (msg.baseLen != 0 && msg.epoch != chain.epoch + 1)) {
    // Park it in epoch order; a duplicate of a parked epoch is dropped.
    const auto at = std::lower_bound(
        pending.begin(), pending.end(), msg.epoch,
        [](const EtobPromoteMsg& p, std::uint64_t epoch) { return p.epoch < epoch; });
    if (at == pending.end() || at->epoch != msg.epoch) pending.insert(at, msg);
    return false;
  }
  splicePromote(chain, msg, cg, adoptedBodies);
  // Drain every parked promote the splice made reconstructible. The head
  // only moves to the oldest pending epoch, so every pending one stays
  // newer than it.
  std::size_t drained = 0;
  for (; drained < pending.size(); ++drained) {
    const EtobPromoteMsg& p = pending[drained];
    WFD_DCHECK(p.epoch > chain.epoch);
    if (p.baseLen != 0 && p.epoch != chain.epoch + 1) break;
    splicePromote(chain, p, cg, adoptedBodies);
  }
  pending.erase(pending.begin(), pending.begin() + static_cast<std::ptrdiff_t>(drained));
  return true;
}

void EtobCore::onInput(const Payload& input, Effects& fx) {
  const auto* bcast = input.as<BroadcastInput>();
  if (bcast == nullptr) return;

  AppMsg m = bcast->msg;
  // C(m) ⊇ everything this process has sent or received so far. Listing
  // the causal frontier (the graph's sinks) is closure-equivalent to
  // listing every known message — every known message reaches a sink —
  // and promote order depends only on the closure.
  std::vector<MsgId> deps = m.causalDeps;
  for (MsgId known : cg_.frontier()) deps.push_back(known);
  cg_.addMessage(m, deps);
  if (config_.deltaUpdates) {
    const std::size_t weight = 3 + m.body.size() + deps.size();
    fx.broadcast(Payload::of(EtobDeltaMsg{std::move(m), std::move(deps)}), weight);
  } else {
    fx.broadcast(Payload::of(EtobUpdateMsg{cg_.snapshot()}), cg_.approxWeight());
  }
}

bool EtobCore::ingestUpdate(const Payload& msg) {
  if (const auto* update = msg.as<EtobUpdateMsg>()) {
    cg_.mergeSnapshot(update->cg);
    // Every promote-learned body whose update has now reached cg_ is
    // backed there; dropping it keeps adoptedBodies_ from growing for the
    // whole run.
    std::erase_if(adoptedBodies_, [&](const auto& entry) {
      return update->cg.mentions(entry.first) && cg_.contains(entry.first);
    });
  } else if (const auto* delta = msg.as<EtobDeltaMsg>()) {
    cg_.addMessage(delta->msg, delta->deps);
    adoptedBodies_.erase(delta->msg.id);
  } else {
    return false;
  }
  cg_.extendPromote();  // UpdatePromote
  return true;
}

const PromoteChain* EtobCore::advancePromote(const StepContext& ctx, ProcessId from,
                                             const EtobPromoteMsg& msg) {
  if (from >= chains_.size()) {
    chains_.resize(from + 1);
    adoptedEpoch_.resize(from + 1, 0);
  }
  PromoteChain& chain = chains_[from];
  advancePromoteChain(chain, msg, cg_, adoptedBodies_);
  // Adopt only from the process this module's Omega currently trusts, and
  // only in send order (stale reordered promotes from the same sender are
  // discarded: the chain head only ever moves forward).
  if (ctx.fd.leader != from || chain.epoch <= adoptedEpoch_[from]) return nullptr;
  return &chain;
}

void EtobCore::adopt(ProcessId from, const PromoteChain& chain, Effects& fx) {
  adoptedEpoch_[from] = chain.epoch;
  deliver(chain.ids, fx);
}

bool EtobCore::promote(const StepContext& ctx, Effects& fx) {
  if (ctx.fd.leader != ctx.self) {
    wasLeader_ = false;
    return false;
  }
  const std::vector<MsgId>& ids = cg_.promoteSequence();
  ++lambdasSincePromote_;
  if (config_.promoteRefreshEvery > 1) {
    const bool changed = rebased_ || ids.size() != lastSentLen_;
    const bool justElected = !wasLeader_;
    const bool refreshDue = lambdasSincePromote_ >= config_.promoteRefreshEvery;
    if (!changed && !justElected && !refreshDue) return false;
  }
  // Delta-encode against the previous sent promote: the suffix past
  // lastSentLen_ plus the base length reconstructs the full sequence at
  // every receiver. The first promote, and the first after a rebase, is
  // a full snapshot (base 0).
  const std::size_t base = rebased_ ? 0 : lastSentLen_;
  WFD_DCHECK(base <= ids.size());
  // Promote only when every promoted body is known (a commit-adopted
  // placeholder may still be in flight). Entries below `base` were
  // resolvable when the previous promote shipped them and nothing forgets
  // content, so scanning the suffix suffices.
  std::vector<AppMsg> seq;
  seq.reserve(ids.size() - base);
  std::size_t weight = 3;
  for (std::size_t k = base; k < ids.size(); ++k) {
    const AppMsg* m = findMessage(ids[k]);
    if (m == nullptr) return false;  // wait for the content to arrive
    seq.push_back(*m);
    weight += 2 + m->body.size();
  }
  wasLeader_ = true;
  lambdasSincePromote_ = 0;
  lastSentLen_ = ids.size();
  rebased_ = false;
  ++promoteEpoch_;
  fx.broadcast(Payload::of(EtobPromoteMsg{std::move(seq), promoteEpoch_, base}),
               weight);
  return true;
}

void EtobCore::rebase(const std::vector<AppMsg>& prefix,
                      const std::vector<MsgId>& ids) {
  for (const AppMsg& m : prefix) cg_.addMessage(m, {});
  cg_.resetPromote(ids);
  rebased_ = true;
}

void EtobCore::deliver(const std::vector<MsgId>& seq, Effects& fx) {
  // An unchanged d_i is no output: the trace drops it and a replica's
  // machine folds nothing from it, so the step sets none.
  if (seq == d_) return;
  d_ = seq;
  fx.deliverSequence(d_);
}

const AppMsg* EtobCore::findMessage(MsgId id) const {
  if (cg_.contains(id)) return &cg_.message(id);
  auto it = adoptedBodies_.find(id);
  return it == adoptedBodies_.end() ? nullptr : &it->second;
}

void EtobAutomaton::onInput(const StepContext&, const Payload& input, Effects& fx) {
  core_.onInput(input, fx);
}

void EtobAutomaton::onMessage(const StepContext& ctx, ProcessId from,
                              const Payload& msg, Effects& fx) {
  if (core_.ingestUpdate(msg)) return;
  if (const auto* promote = msg.as<EtobPromoteMsg>()) {
    if (const PromoteChain* chain = core_.advancePromote(ctx, from, *promote)) {
      core_.adopt(from, *chain, fx);
    }
  }
}

void EtobAutomaton::onTimeout(const StepContext& ctx, Effects& fx) {
  core_.promote(ctx, fx);
}

}  // namespace wfd
