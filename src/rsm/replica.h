// Replicated state machine over any broadcast ordering service.
//
// Plugging EtobAutomaton gives the paper's eventually consistent
// replicated service (an "eventually linearizable universal
// construction", §6); plugging TobViaConsensusAutomaton gives the
// classical strongly consistent replica. A command is an ordinary
// BroadcastInput whose body is the command (the facade allocates its
// MsgId). Every step, with the caller's Effects, passes straight to the
// ordering layer; the replica then replays the d_i that step set into
// the machine: when d_i grows by a suffix, the new commands are applied
// incrementally; when d_i is rewritten (possible in ETOB before τ), the
// machine is rebuilt from scratch — state = fold(apply, initial, d_i).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/ensure.h"
#include "common/types.h"
#include "sim/app_msg.h"
#include "sim/automaton.h"

namespace wfd {

template <typename Ordering, typename Machine>
class ReplicaAutomaton final
    : public CloneableAutomaton<ReplicaAutomaton<Ordering, Machine>> {
 public:
  explicit ReplicaAutomaton(Ordering ordering) : ordering_(std::move(ordering)) {}

  void onInput(const StepContext& ctx, const Payload& input, Effects& fx) override {
    ordering_.onInput(ctx, input, fx);
    fold(fx);
  }

  void onMessage(const StepContext& ctx, ProcessId from, const Payload& msg,
                 Effects& fx) override {
    ordering_.onMessage(ctx, from, msg, fx);
    fold(fx);
  }

  void onTimeout(const StepContext& ctx, Effects& fx) override {
    ordering_.onTimeout(ctx, fx);
    fold(fx);
  }

  const Machine& machine() const { return machine_; }
  const Ordering& ordering() const { return ordering_; }
  /// Number of full state rebuilds caused by delivery-sequence rewrites
  /// (zero under strong TOB; zero after τ under ETOB).
  std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  /// The step began with empty Effects (sim/automaton.h), so a d_i in
  /// them is the one the ordering layer just set.
  void fold(const Effects& fx) {
    if (const std::vector<MsgId>* d = fx.delivered()) syncMachine(*d);
  }

  void syncMachine(const std::vector<MsgId>& seq) {
    const bool isExtension =
        seq.size() >= applied_.size() &&
        std::equal(applied_.begin(), applied_.end(), seq.begin());
    std::size_t from = applied_.size();
    if (!isExtension) {
      machine_ = Machine{};
      ++rebuilds_;
      from = 0;
    }
    for (std::size_t i = from; i < seq.size(); ++i) {
      const AppMsg* m = ordering_.findMessage(seq[i]);
      WFD_ENSURE_MSG(m != nullptr, "delivered command with unknown content");
      machine_.apply(m->body);
    }
    applied_ = seq;
  }

  Ordering ordering_;
  Machine machine_;
  std::vector<MsgId> applied_;
  std::uint64_t rebuilds_ = 0;
};

}  // namespace wfd
