// Proposal driver: the paper's standing assumption that every process
// invokes proposeEC_{j+1} as soon as proposeEC_j returns.
//
// Wraps any EC-like automaton (Algorithm 4, or a transformation stack
// ending in EC) and feeds it a deterministic stream of proposals; every
// inner decision is re-emitted so the trace sees the full decision
// history, then the next instance is proposed immediately — within the
// same step, as "as soon as" demands.
#pragma once

#include <functional>
#include <utility>

#include "common/types.h"
#include "ec/ec_types.h"
#include "sim/automaton.h"

namespace wfd {

/// Deterministic proposal values: value = f(self, instance).
using ProposalSource = std::function<Value(ProcessId, Instance)>;

/// A ProposalSource for binary EC that varies pseudo-randomly but
/// deterministically with (process, instance, salt).
inline ProposalSource binaryProposals(std::uint64_t salt) {
  return [salt](ProcessId p, Instance l) -> Value {
    std::uint64_t x = salt ^ (p * 0x9e3779b97f4a7c15ULL) ^ (l * 0x85ebca6bULL);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return Value{x & 1};
  };
}

/// Drives `Impl` through instances 1..maxInstances: proposes instance
/// j+1 on the first `Decision` for instance j (later revisions of an
/// instance's response do not re-trigger proposals). `Propose` and
/// `Decision` are the abstraction's input and response payloads.
template <typename Impl, typename Propose, typename Decision>
class ProposalDriverAutomaton final
    : public CloneableAutomaton<
          ProposalDriverAutomaton<Impl, Propose, Decision>> {
 public:
  ProposalDriverAutomaton(Impl inner, ProposalSource source, Instance maxInstances)
      : inner_(std::move(inner)),
        source_(std::move(source)),
        maxInstances_(maxInstances) {}

  void onInput(const StepContext& ctx, const Payload& input, Effects& fx) override {
    Effects cfx;
    inner_.onInput(ctx, input, cfx);
    drain(ctx, cfx, fx);
  }

  void onMessage(const StepContext& ctx, ProcessId from, const Payload& msg,
                 Effects& fx) override {
    Effects cfx;
    inner_.onMessage(ctx, from, msg, cfx);
    drain(ctx, cfx, fx);
  }

  void onTimeout(const StepContext& ctx, Effects& fx) override {
    if (next_ == 0) {
      next_ = 1;
      propose(ctx, fx);
    }
    Effects cfx;
    inner_.onTimeout(ctx, cfx);
    drain(ctx, cfx, fx);
  }

 private:
  void propose(const StepContext& ctx, Effects& fx) {
    if (next_ > maxInstances_) return;
    Value value = source_(ctx.self, next_);
    fx.output(Payload::of(ProposalMade{next_, value}));
    Effects cfx;
    inner_.onInput(ctx, Payload::of(Propose{next_, std::move(value)}), cfx);
    drain(ctx, cfx, fx);
  }

  void drain(const StepContext& ctx, Effects& cfx, Effects& fx) {
    // The driver adds no messages of its own, so inner sends pass through
    // untagged; inner decisions are re-emitted and advance the schedule.
    for (const OutboundMsg& m : cfx.sends()) {
      if (m.to == kBroadcast) {
        fx.broadcast(m.payload, m.weight);
      } else {
        fx.send(m.to, m.payload, m.weight);
      }
    }
    if (const std::vector<MsgId>* d = cfx.delivered()) fx.deliverSequence(*d);
    for (const Payload& out : cfx.outputs()) {
      fx.output(out);
      const auto* decision = out.as<Decision>();
      if (decision != nullptr && decision->instance == next_) {
        ++next_;
        propose(ctx, fx);  // "as soon as proposeEC_j returns"
      }
    }
  }

  Impl inner_;
  ProposalSource source_;
  Instance maxInstances_ = 0;
  /// Next instance to propose; 0 = not started.
  Instance next_ = 0;
};

/// Driver for eventual consensus (Algorithm 4 or a stack ending in EC).
template <typename EcImpl>
using EcDriverAutomaton =
    ProposalDriverAutomaton<EcImpl, ProposeInput, EcDecision>;

/// Driver for eventual irrevocable consensus (Appendix A).
template <typename EicImpl>
using EicDriverAutomaton =
    ProposalDriverAutomaton<EicImpl, ProposeEicInput, EicDecision>;

}  // namespace wfd
