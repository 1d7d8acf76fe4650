// The paper's four black-box transformations:
//   Algorithm 1  T_EC->ETOB   (proves half of Theorem 1)
//   Algorithm 2  T_ETOB->EC   (proves the other half of Theorem 1)
//   Algorithm 6  T_EC->EIC    (Appendix A, half of Theorem 3)
//   Algorithm 7  T_EIC->EC    (Appendix A, other half of Theorem 3)
//
// Each wrapper embeds the inner protocol as a value member and routes its
// wire messages through a channel tag, so stacks of transformations
// compose (e.g. EC -> ETOB -> EC for the equivalence benches).
#pragma once

#include <concepts>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/ensure.h"
#include "common/types.h"
#include "sim/app_msg_codec.h"
#include "ec/ec_types.h"
#include "sim/app_msg.h"
#include "sim/automaton.h"
#include "sim/composite.h"

namespace wfd {

/// What the ETOB->EC transformation needs from its inner broadcast
/// protocol: the current delivery sequence plus content lookup.
template <typename T>
concept BroadcastAutomatonLike = requires(const T& t, MsgId id) {
  { t.delivered() } -> std::convertible_to<const std::vector<MsgId>&>;
  { t.findMessage(id) } -> std::convertible_to<const AppMsg*>;
};

// ---------------------------------------------------------------------------
// Algorithm 1: T_EC->ETOB — eventual total order broadcast from eventual
// consensus.
//
//  * broadcastETOB(m)        -> send push(m) to all
//  * on push(m)              -> toDeliver_i := toDeliver_i ∪ {m}
//  * on response d of EC_l   -> d_i := d; count_i += 1;
//                               proposeEC_count(d_i · NewBatch(d_i, toDeliver_i))
//  * on local timeout        -> if count_i = 0 then count_i := 1;
//                               proposeEC_1(NewBatch(d_i, toDeliver_i))
// ---------------------------------------------------------------------------

/// Outer wire message of Algorithm 1.
struct EcToEtobPushMsg {
  AppMsg msg;
};

template <typename EcImpl>
class EcToEtobAutomaton final
    : public CloneableAutomaton<EcToEtobAutomaton<EcImpl>> {
 public:
  static constexpr std::uint32_t kEcChannel = 0xA1;

  explicit EcToEtobAutomaton(EcImpl inner) : ec_(std::move(inner)) {}

  void onInput(const StepContext&, const Payload& input, Effects& fx) override {
    const auto* bcast = input.as<BroadcastInput>();
    if (bcast == nullptr) return;
    fx.broadcast(Payload::of(EcToEtobPushMsg{bcast->msg}));
  }

  void onMessage(const StepContext& ctx, ProcessId from, const Payload& msg,
                 Effects& fx) override {
    if (const auto* push = msg.as<EcToEtobPushMsg>()) {
      toDeliver_.emplace(push->msg.id, push->msg);
      return;
    }
    if (const Payload* inner = unwrapChannel(msg, kEcChannel)) {
      Effects cfx;
      ec_.onMessage(ctx, from, *inner, cfx);
      drain(ctx, cfx, fx);
    }
  }

  void onTimeout(const StepContext& ctx, Effects& fx) override {
    if (count_ == 0) {
      count_ = 1;
      propose(ctx, fx, newBatch());
    }
    Effects cfx;
    ec_.onTimeout(ctx, cfx);
    drain(ctx, cfx, fx);
  }

  /// BroadcastAutomatonLike.
  const std::vector<MsgId>& delivered() const { return dIds_; }
  const AppMsg* findMessage(MsgId id) const {
    auto it = known_.find(id);
    if (it != known_.end()) return &it->second;
    auto pending = toDeliver_.find(id);
    return pending == toDeliver_.end() ? nullptr : &pending->second;
  }

 private:
  /// NewBatch(d_i, toDeliver_i): all received messages not yet in d_i,
  /// in deterministic (MsgId) order.
  std::vector<AppMsg> newBatch() const {
    std::set<MsgId> present(dIds_.begin(), dIds_.end());
    std::vector<AppMsg> batch;
    for (const auto& [id, m] : toDeliver_) {  // std::map: ascending ids
      if (!present.contains(id)) batch.push_back(m);
    }
    return batch;
  }

  void propose(const StepContext& ctx, Effects& fx, std::vector<AppMsg> batch) {
    std::vector<AppMsg> proposal = d_;
    proposal.insert(proposal.end(), batch.begin(), batch.end());
    Effects cfx;
    ec_.onInput(ctx, Payload::of(ProposeInput{count_, encodeAppMsgSeq(proposal)}),
                cfx);
    drain(ctx, cfx, fx);
  }

  void drain(const StepContext& ctx, Effects& cfx, Effects& fx) {
    relayChildSends(fx, kEcChannel, cfx);
    for (const Payload& out : cfx.outputs()) {
      const auto* decision = out.as<EcDecision>();
      if (decision == nullptr || decision->instance != count_) continue;
      d_ = decodeAppMsgSeq(decision->value);
      dIds_.clear();
      for (const AppMsg& m : d_) {
        dIds_.push_back(m.id);
        known_.emplace(m.id, m);
      }
      fx.deliverSequence(dIds_);
      count_ += 1;
      propose(ctx, fx, newBatch());
    }
  }

  EcImpl ec_;
  std::vector<AppMsg> d_;    // d_i with content
  std::vector<MsgId> dIds_;  // d_i as ids (trace form)
  std::map<MsgId, AppMsg> toDeliver_;
  std::map<MsgId, AppMsg> known_;  // everything ever decided (content cache)
  Instance count_ = 0;
};

// ---------------------------------------------------------------------------
// Algorithm 2: T_ETOB->EC — eventual consensus from eventual total order
// broadcast.
//
//  * proposeEC_l(v)   -> count_i := l; broadcastETOB((l, v))
//  * on local timeout -> if First(count_i) != ⊥ then
//                        DecideEC(count_i, First(count_i))
// ---------------------------------------------------------------------------

template <typename EtobImpl>
  requires BroadcastAutomatonLike<EtobImpl>
class EtobToEcAutomaton final
    : public CloneableAutomaton<EtobToEcAutomaton<EtobImpl>> {
 public:
  static constexpr std::uint32_t kEtobChannel = 0xA2;

  explicit EtobToEcAutomaton(EtobImpl inner) : etob_(std::move(inner)) {}

  void onInput(const StepContext& ctx, const Payload& input, Effects& fx) override {
    const auto* propose = input.as<ProposeInput>();
    if (propose == nullptr) return;
    count_ = propose->instance;
    AppMsg m;
    m.id = makeMsgId(ctx.self, nextSeq_++);
    m.origin = ctx.self;
    m.body.push_back(propose->instance);
    m.body.insert(m.body.end(), propose->value.begin(), propose->value.end());
    Effects cfx;
    etob_.onInput(ctx, Payload::of(BroadcastInput{std::move(m)}), cfx);
    drain(ctx, cfx, fx);
  }

  void onMessage(const StepContext& ctx, ProcessId from, const Payload& msg,
                 Effects& fx) override {
    if (const Payload* inner = unwrapChannel(msg, kEtobChannel)) {
      Effects cfx;
      etob_.onMessage(ctx, from, *inner, cfx);
      drain(ctx, cfx, fx);
    }
  }

  void onTimeout(const StepContext& ctx, Effects& fx) override {
    Effects cfx;
    etob_.onTimeout(ctx, cfx);
    drain(ctx, cfx, fx);
    maybeDecide(ctx, fx);
  }

 private:
  void drain(const StepContext&, Effects& cfx, Effects& fx) {
    relayChildSends(fx, kEtobChannel, cfx);
    // The inner delivery sequence is internal to the transformation: EC's
    // observable outputs are decisions only.
  }

  /// First(l): value v of the first message of the form (l, v) in d_i.
  void maybeDecide(const StepContext&, Effects& fx) {
    if (count_ == 0 || decided_.contains(count_)) return;
    for (MsgId id : etob_.delivered()) {
      const AppMsg* m = etob_.findMessage(id);
      WFD_ENSURE_MSG(m != nullptr, "delivered message with unknown content");
      if (m->body.empty() || m->body[0] != count_) continue;
      decided_.insert(count_);
      fx.output(Payload::of(
          EcDecision{count_, Value(m->body.begin() + 1, m->body.end())}));
      return;
    }
  }

  EtobImpl etob_;
  Instance count_ = 0;
  std::uint32_t nextSeq_ = 0;
  std::set<Instance> decided_;
};

// ---------------------------------------------------------------------------
// Algorithm 6: T_EC->EIC — eventual irrevocable consensus from EC.
//
//  * proposeEIC_l(v)           -> proposeEC_l(decision_i · v)
//  * on response `decision` of -> for k in 1..l: if decision[k] differs
//    proposeEC_l                  from decision_i[k], DecideEIC(k, ...);
//                                 decision_i := decision
// ---------------------------------------------------------------------------

template <typename EcImpl>
class EcToEicAutomaton final
    : public CloneableAutomaton<EcToEicAutomaton<EcImpl>> {
 public:
  static constexpr std::uint32_t kEcChannel = 0xA6;

  explicit EcToEicAutomaton(EcImpl inner) : ec_(std::move(inner)) {}

  void onInput(const StepContext& ctx, const Payload& input, Effects& fx) override {
    const auto* propose = input.as<ProposeEicInput>();
    if (propose == nullptr) return;
    std::vector<Value> proposal = decision_;
    proposal.push_back(propose->value);
    Effects cfx;
    ec_.onInput(ctx,
                Payload::of(ProposeInput{propose->instance, encodeValueSeq(proposal)}),
                cfx);
    drain(ctx, cfx, fx);
  }

  void onMessage(const StepContext& ctx, ProcessId from, const Payload& msg,
                 Effects& fx) override {
    if (const Payload* inner = unwrapChannel(msg, kEcChannel)) {
      Effects cfx;
      ec_.onMessage(ctx, from, *inner, cfx);
      drain(ctx, cfx, fx);
    }
  }

  void onTimeout(const StepContext& ctx, Effects& fx) override {
    Effects cfx;
    ec_.onTimeout(ctx, cfx);
    drain(ctx, cfx, fx);
  }

 private:
  void drain(const StepContext&, Effects& cfx, Effects& fx) {
    relayChildSends(fx, kEcChannel, cfx);
    for (const Payload& out : cfx.outputs()) {
      const auto* ecDecision = out.as<EcDecision>();
      if (ecDecision == nullptr) continue;
      std::vector<Value> decoded = decodeValueSeq(ecDecision->value);
      for (std::size_t k = 0; k < decoded.size(); ++k) {
        const bool differs = k >= decision_.size() || decision_[k] != decoded[k];
        if (differs) {
          fx.output(Payload::of(EicDecision{k + 1, decoded[k]}));
        }
      }
      decision_ = std::move(decoded);
    }
  }

  EcImpl ec_;
  std::vector<Value> decision_;  // decision_i[k] is instance k+1's response
};

// ---------------------------------------------------------------------------
// Algorithm 7: T_EIC->EC — eventual consensus from EIC.
//
//  * proposeEC_l(v)            -> count_i := l; proposeEIC_l(v)
//  * on response v of EIC_l    -> if count_i = l then DecideEC(l, v)
//    (first response only — EC-Integrity)
// ---------------------------------------------------------------------------

template <typename EicImpl>
class EicToEcAutomaton final
    : public CloneableAutomaton<EicToEcAutomaton<EicImpl>> {
 public:
  static constexpr std::uint32_t kEicChannel = 0xA7;

  explicit EicToEcAutomaton(EicImpl inner) : eic_(std::move(inner)) {}

  void onInput(const StepContext& ctx, const Payload& input, Effects& fx) override {
    const auto* propose = input.as<ProposeInput>();
    if (propose == nullptr) return;
    count_ = propose->instance;
    Effects cfx;
    eic_.onInput(ctx,
                 Payload::of(ProposeEicInput{propose->instance, propose->value}),
                 cfx);
    drain(ctx, cfx, fx);
  }

  void onMessage(const StepContext& ctx, ProcessId from, const Payload& msg,
                 Effects& fx) override {
    if (const Payload* inner = unwrapChannel(msg, kEicChannel)) {
      Effects cfx;
      eic_.onMessage(ctx, from, *inner, cfx);
      drain(ctx, cfx, fx);
    }
  }

  void onTimeout(const StepContext& ctx, Effects& fx) override {
    Effects cfx;
    eic_.onTimeout(ctx, cfx);
    drain(ctx, cfx, fx);
  }

 private:
  void drain(const StepContext&, Effects& cfx, Effects& fx) {
    relayChildSends(fx, kEicChannel, cfx);
    for (const Payload& out : cfx.outputs()) {
      const auto* eicDecision = out.as<EicDecision>();
      if (eicDecision == nullptr) continue;
      if (eicDecision->instance != count_ || decided_.contains(count_)) continue;
      decided_.insert(count_);
      fx.output(Payload::of(EcDecision{eicDecision->instance, eicDecision->value}));
    }
  }

  EicImpl eic_;
  Instance count_ = 0;
  std::set<Instance> decided_;
};

}  // namespace wfd
