// The deterministic process automaton A(p) and its step effects.
//
// The paper's step (p, m, d, A): process p atomically (1) receives one
// message m (possibly the empty message λ) or an application input,
// (2) queries its failure detector and obtains d, (3) transitions, and
// (4) sends a message to every process and/or produces outputs. Here:
//   * onMessage  — a step receiving a real message,
//   * onTimeout  — a λ-step ("on local timeout" in the algorithms),
//   * onInput    — a step accepting an application input.
// Effects collects the sends/outputs of the step; the simulator applies
// them atomically after the handler returns.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/fd_interface.h"
#include "sim/message.h"
#include "sim/payload.h"

namespace wfd {

/// Read-only context handed to every step.
struct StepContext {
  Time now = 0;
  ProcessId self = kNoProcess;
  std::size_t processCount = 0;
  /// Failure detector value d obtained by this step's query.
  FdValue fd;
};

/// One outbound message of a step. `weight` is an abstract size (in
/// words) used by the ablation benches to compare gossip footprints —
/// it does not affect scheduling.
struct OutboundMsg {
  ProcessId to = kNoProcess;  // kBroadcast => every process
  Payload payload;
  std::size_t weight = 1;
};

/// Collector for the sends and outputs of a single step. Every caller
/// hands a step an empty Effects (the simulator clears its scratch; a
/// wrapper or the CHT tree makes a fresh one), so an automaton that
/// passes its Effects to an inner one can read back what that step did.
class Effects {
 public:
  /// Sends a payload to every process, including the sender (the paper's
  /// step semantics).
  void broadcast(Payload p, std::size_t weight = 1) {
    sends_.push_back(OutboundMsg{kBroadcast, std::move(p), weight});
  }

  /// Sends a payload to one process (used by the quorum-based baseline).
  void send(ProcessId to, Payload p, std::size_t weight = 1) {
    sends_.push_back(OutboundMsg{to, std::move(p), weight});
  }

  /// Produces an append-only application output (e.g. an EC decision).
  void output(Payload p) { outputs_.push_back(std::move(p)); }

  /// Overwrites the process's delivery-sequence output variable d_i.
  /// ETOB semantics allow rewriting (messages delivered but not yet
  /// stably delivered may disappear or move). The copy reuses the room
  /// an earlier step's d_i left, so a reused Effects (the simulator's
  /// scratch) stops allocating once it has held the longest d_i.
  void deliverSequence(const std::vector<MsgId>& seq) {
    delivered_ = seq;
    hasDelivered_ = true;
  }

  /// Introspection — used by the simulator, by composing automata
  /// (transformations embed sub-protocols) and by the CHT simulator.
  const std::vector<OutboundMsg>& sends() const { return sends_; }
  const std::vector<Payload>& outputs() const { return outputs_; }
  /// The d_i this step set, or null when it set none.
  const std::vector<MsgId>* delivered() const {
    return hasDelivered_ ? &delivered_ : nullptr;
  }

  /// Empties the collector for the next step; every buffer keeps its
  /// capacity.
  void clear() {
    sends_.clear();
    outputs_.clear();
    hasDelivered_ = false;
  }

 private:
  std::vector<OutboundMsg> sends_;
  std::vector<Payload> outputs_;
  std::vector<MsgId> delivered_;
  bool hasDelivered_ = false;
};

/// Deterministic automaton A(p). Implementations must hold value-semantic
/// state only: clone() must produce an independent deep copy (the CHT
/// reduction replays cloned automata along simulated schedules).
class Automaton {
 public:
  virtual ~Automaton() = default;

  /// Deep copy of the current state.
  virtual std::unique_ptr<Automaton> clone() const = 0;

  /// Step accepting an application input (propose / broadcast call).
  virtual void onInput(const StepContext& ctx, const Payload& input, Effects& fx);

  /// Step receiving a message from `from`.
  virtual void onMessage(const StepContext& ctx, ProcessId from, const Payload& msg,
                         Effects& fx) = 0;

  /// λ-step: periodic "on local timeout" handler.
  virtual void onTimeout(const StepContext& ctx, Effects& fx);
};

inline void Automaton::onInput(const StepContext&, const Payload&, Effects&) {}
inline void Automaton::onTimeout(const StepContext&, Effects&) {}

/// CRTP helper implementing clone() via the derived copy constructor.
template <typename Derived>
class CloneableAutomaton : public Automaton {
 public:
  std::unique_ptr<Automaton> clone() const override {
    return std::make_unique<Derived>(static_cast<const Derived&>(*this));
  }
};

}  // namespace wfd
