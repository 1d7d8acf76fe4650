// Pluggable network models: the policy half of the simulator's message
// scheduling, factored out of Simulator so scenarios can exercise the
// paper's full space of admissible runs (the results quantify over EVERY
// message-delay schedule, not just uniform delays). A model answers one
// question: when, if ever, each copy of a send arrives. Partition windows
// and per-process clock skew are SimConfig data the simulator applies
// itself (sim/simulator.h), after every model layer.
//
// Admissibility contract — what a model may and may not do so that every
// run it produces stays a run of the paper's model (docs/SCENARIOS.md
// spells this out in prose):
//  * every scheduled copy arrives at a finite time >= sentAt + 1
//    (messages never travel backwards or instantaneously);
//  * a model with mayDrop() == false must schedule at least one copy of
//    every message — such links are reliable: delivery to a live process
//    may be delayed, duplicated at the network layer or reordered, but
//    never dropped;
//  * a model with mayDrop() == true may schedule ZERO copies (fair-lossy
//    links, sim/lossy_model.h), but only under the fairness obligation
//    that a retransmitted send eventually gets a copy through — the
//    simulator pairs every mayDrop() model with its stubborn
//    retransmission layer (sim/simulator.h), which restores eventual
//    exactly-once delivery to correct processes, so the run as a whole
//    stays admissible;
//  * duplicates are allowed HERE because the simulator suppresses them
//    at the automaton boundary (every copy of a send shares one envelope,
//    handed to the target automaton at most once), preserving the paper's
//    exactly-once step semantics while still exercising duplicate traffic
//    in the queues;
//  * all nondeterminism must come from the Rng argument, making a
//    (config, pattern, model, seed) tuple fully determine the run.
//
// Models compose by decoration: the lossy decorators and ChaosLinkModel
// wrap an inner model and transform its schedule. Composition order
// matters: a decorator only sees its inner model's output, so a chaos
// layer wrapped AROUND a lossy one would duplicate copies the loss draw
// never saw. Every decorator reports a compositionRank() and
// ensureCanonicalComposition() rejects stacks whose ranks are not
// non-increasing from the outside in (lossy > chaos > base).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace wfd {

/// Everything a model may inspect when scheduling one message copy.
struct LinkSend {
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  Time sentAt = 0;
  /// Unique per-run network identifier (assigned by the simulator).
  std::uint64_t uid = 0;
};

/// Scheduling policy for one simulated network. Stateless with respect to
/// individual runs: all per-run randomness flows through the Rng argument.
class NetworkModel {
 public:
  virtual ~NetworkModel() = default;

  /// Appends the arrival time(s) of this send to `arrivals` (>= 1 entry,
  /// each >= sentAt + 1). Emitting several entries models duplication;
  /// the simulator delivers the earliest and suppresses the rest at the
  /// automaton boundary. The number and order of rng draws is part of
  /// the model's deterministic identity — two runs with equal seeds and
  /// equal models make identical draws.
  virtual void schedule(const LinkSend& send, Rng& rng,
                        std::vector<Time>& arrivals) const = 0;

  /// True when schedule() may emit ZERO arrivals for some send (fair-lossy
  /// links). The simulator activates its stubborn retransmission layer for
  /// any model reporting true — it is a capability bit, not a rate: a
  /// lossy decorator configured with rate 0 still reports true so the
  /// retransmission path is engaged (and differentially testable) even
  /// when no message is ever actually dropped. Decorators must propagate
  /// the inner model's answer.
  virtual bool mayDrop() const { return false; }

  /// Composition rank for ensureCanonicalComposition(): decorators must
  /// be stacked with ranks non-increasing from the outside in. Base
  /// models rank kRankBase; see the constants below the class.
  virtual int compositionRank() const;

  /// The decorated inner model, or nullptr for base (non-decorator)
  /// models. Lets ensureCanonicalComposition() walk the stack.
  virtual const NetworkModel* innerModel() const { return nullptr; }

  /// Human-readable model name for diagnostics and scenario JSON.
  virtual std::string name() const = 0;
};

/// Composition ranks, outermost-largest. Spaced by 10 so future layers
/// can slot in without renumbering.
inline constexpr int kRankBase = 0;
inline constexpr int kRankChaos = 10;  // duplication / reorder jitter
inline constexpr int kRankLossy = 20;  // drop decisions (lossy_model.h)

/// Walks the decorator chain of `outermost` via innerModel() and raises
/// an InvariantError unless compositionRank() is non-increasing from the
/// outside in: chaos wrapped around loss is rejected at construction time
/// instead of silently producing schedules the inner layers never saw.
void ensureCanonicalComposition(const NetworkModel& outermost);

/// The legacy Simulator policy, bit-for-bit: one copy per send, delayed
/// uniformly in [minDelay, maxDelay] (exactly maxDelay when fixed). A
/// Simulator constructed without an explicit model uses this one built
/// from its SimConfig, so pre-refactor (config, pattern, seed) triples
/// replay unchanged.
class UniformDelayModel final : public NetworkModel {
 public:
  UniformDelayModel(Time minDelay, Time maxDelay, bool fixed = false);

  void schedule(const LinkSend& send, Rng& rng,
                std::vector<Time>& arrivals) const override;
  std::string name() const override;

 private:
  Time minDelay_;
  Time maxDelay_;
  bool fixed_;
};

/// Per-link delay bounds, queried per (from, to) pair — expresses slow or
/// asymmetric links (a->b fast while b->a is slow, a remote process, a
/// congested leader uplink, ...).
class AsymmetricDelayModel final : public NetworkModel {
 public:
  struct LinkDelay {
    Time minDelay = 1;
    Time maxDelay = 1;
  };
  using DelayFn = std::function<LinkDelay(ProcessId from, ProcessId to)>;

  explicit AsymmetricDelayModel(DelayFn delays);

  /// Uniform base bounds, with every link touching `slow` (either
  /// direction) stretched by `factor`.
  static std::shared_ptr<AsymmetricDelayModel> slowProcess(
      Time minDelay, Time maxDelay, ProcessId slow, Time factor);

  void schedule(const LinkSend& send, Rng& rng,
                std::vector<Time>& arrivals) const override;
  std::string name() const override;

 private:
  DelayFn delays_;
};

/// Decorator adding bounded duplication and reordering on top of the
/// inner model: each copy is jittered by up to `reorderJitter` extra
/// ticks (reordering relative to send order), and with probability
/// dupNum/dupDen up to `maxExtraCopies` duplicates are scheduled at
/// independently jittered times. An optional link filter restricts the
/// chaos to a subset of links (e.g. one flaky link to the majority).
class ChaosLinkModel final : public NetworkModel {
 public:
  struct Config {
    std::uint32_t dupNum = 1;
    std::uint32_t dupDen = 4;
    std::uint32_t maxExtraCopies = 2;
    Time reorderJitter = 30;
    /// nullptr = all links affected.
    std::function<bool(ProcessId from, ProcessId to)> affects;
  };

  ChaosLinkModel(std::shared_ptr<const NetworkModel> inner, Config config);

  void schedule(const LinkSend& send, Rng& rng,
                std::vector<Time>& arrivals) const override;
  bool mayDrop() const override { return inner_->mayDrop(); }
  int compositionRank() const override { return kRankChaos; }
  const NetworkModel* innerModel() const override { return inner_.get(); }
  std::string name() const override;

 private:
  std::shared_ptr<const NetworkModel> inner_;
  Config config_;
};

}  // namespace wfd
