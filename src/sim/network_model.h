// Pluggable network models: the policy half of the simulator's message
// scheduling, factored out of Simulator so scenarios can exercise the
// paper's full space of admissible runs (the results quantify over EVERY
// message-delay schedule, not just uniform delays).
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
//  * lambdaPeriod must return a finite period >= 1 for every process —
//    correct processes must keep taking infinitely many λ-steps;
//  * all nondeterminism must come from the Rng argument, making a
//    (config, pattern, model, seed) tuple fully determine the run.
//
// Models compose by decoration: PartitionModel, the lossy decorators,
// ChaosLinkModel and ClockSkewModel wrap an inner model and transform
// its schedule. Composition order matters: a decorator only sees its
// inner model's output, so when combining partitions with loss or
// jitter/duplication, put PartitionModel OUTERMOST — a ChaosLinkModel
// wrapped AROUND a PartitionModel could jitter a deferred arrival back
// inside a later partition window, silently defeating the partition,
// and a lossy layer wrapped AROUND a PartitionModel would sample link
// loss at post-heal times instead of the schedule the partition
// actually produced. This is no longer prose-only: every decorator
// reports a compositionRank() and ensureCanonicalComposition() rejects
// stacks whose ranks are not non-increasing from the outside in
// (partitions > lossy layers > clock skew > chaos > base). The builders
// (RandomScheduleModel, the catalog helpers) call the guard; hand-rolled
// stacks should too.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/ensure.h"
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

  /// Effective λ-step period of process p given the configured base
  /// period. Default: unchanged. Clock-skew models scale it per process;
  /// the result must be >= 1 and finite (admissibility).
  virtual Time lambdaPeriod(ProcessId p, Time basePeriod) const {
    (void)p;
    return basePeriod;
  }

  /// True when schedule() may emit more than one arrival for some send.
  /// Lets the simulator skip duplicate-suppression bookkeeping entirely
  /// for duplicate-free models.
  virtual bool mayDuplicate() const { return false; }

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
inline constexpr int kRankChaos = 10;      // duplication / reorder jitter
inline constexpr int kRankClockSkew = 20;  // λ-period scaling
inline constexpr int kRankLossy = 30;      // drop decisions (lossy_model.h)
inline constexpr int kRankPartition = 40;  // deferral past windows

/// Walks the decorator chain of `outermost` via innerModel() and raises
/// an InvariantError unless compositionRank() is non-increasing from the
/// outside in. This turns the "partitions OUTERMOST" prose above into an
/// enforced invariant: loss wrapped around a partition, or chaos wrapped
/// around loss, is rejected at construction time instead of silently
/// producing schedules the inner layers never saw.
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

/// One recurring or one-shot partition specification. Arrivals that land
/// inside an active window on an affected link are deferred to the window
/// end — links heal and deliver, never drop (admissibility).
struct PartitionSpec {
  /// First window start.
  Time start = 0;
  /// Window width. Must be < period for recurring windows.
  Time width = 0;
  /// Recurrence period; 0 = one-shot window [start, start + width).
  Time period = 0;
  /// Which links the partition affects. Ignored when `componentOf` is
  /// set. A null predicate with an empty `componentOf` affects ALL links.
  std::function<bool(ProcessId from, ProcessId to)> affects;
  /// Flat component index: when non-empty (size >= processCount), the
  /// spec cuts exactly the links crossing components —
  /// componentOf[from] != componentOf[to] — and `affects` is ignored.
  /// Two array reads per lookup instead of a std::function call, which
  /// is the difference between O(1) and an indirect call on the deferral
  /// path every arrival takes at n=256. Symmetric cuts only; one-way
  /// cuts still need the predicate form.
  std::vector<std::uint16_t> componentOf;

  /// True iff this spec cuts the (from, to) link.
  bool cuts(ProcessId from, ProcessId to) const {
    if (!componentOf.empty()) {
      WFD_ENSURE_MSG(from < componentOf.size() && to < componentOf.size(),
                     "componentOf smaller than the process id space");
      return componentOf[from] != componentOf[to];
    }
    return !affects || affects(from, to);
  }

  /// Component map splitting [0, n) into [0, boundary) vs [boundary, n)
  /// — the canonical "split the cluster in half" partition at any scale.
  static std::vector<std::uint16_t> splitAt(std::size_t processCount,
                                            std::size_t boundary) {
    std::vector<std::uint16_t> components(processCount, 0);
    for (std::size_t p = boundary; p < processCount; ++p) components[p] = 1;
    return components;
  }
};

/// Defers `at` past every active partition window of `specs` on the
/// (from, to) link, iterating to a fixed point (windows of different
/// specs may chain). An iteration bound rejects — with an InvariantError,
/// not a hang — spec sets that jointly cover all time on a link: those
/// would defer forever, i.e. drop the message, which admissibility
/// forbids. Shared by PartitionModel and Simulator::addPartition so the
/// deferral algorithm exists exactly once.
Time deferPastPartitions(const std::vector<PartitionSpec>& specs,
                         ProcessId from, ProcessId to, Time at);

/// Decorator deferring the inner model's arrivals out of partition
/// windows. With period > 0 this is a periodic partition (heal storms);
/// with period == 0 an adversarial one-shot window. Multiple specs
/// compose (deferral iterates to a fixed point).
class PartitionModel final : public NetworkModel {
 public:
  PartitionModel(std::shared_ptr<const NetworkModel> inner,
                 std::vector<PartitionSpec> specs);

  void schedule(const LinkSend& send, Rng& rng,
                std::vector<Time>& arrivals) const override;
  Time lambdaPeriod(ProcessId p, Time basePeriod) const override;
  bool mayDuplicate() const override;
  bool mayDrop() const override { return inner_->mayDrop(); }
  int compositionRank() const override { return kRankPartition; }
  const NetworkModel* innerModel() const override { return inner_.get(); }
  std::string name() const override;

 private:
  std::shared_ptr<const NetworkModel> inner_;
  std::vector<PartitionSpec> specs_;
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
  Time lambdaPeriod(ProcessId p, Time basePeriod) const override;
  bool mayDuplicate() const override { return true; }
  bool mayDrop() const override { return inner_->mayDrop(); }
  int compositionRank() const override { return kRankChaos; }
  const NetworkModel* innerModel() const override { return inner_.get(); }
  std::string name() const override;

 private:
  std::shared_ptr<const NetworkModel> inner_;
  Config config_;
};

/// Decorator applying per-process clock skew to the λ-step period: the
/// period of p is scaled by num(p)/den(p), clamped to >= 1. Message
/// scheduling is delegated untouched. Skewed clocks stay admissible —
/// every process still takes infinitely many steps, just at a different
/// cadence, which stresses every Δ_t-based convergence argument.
class ClockSkewModel final : public NetworkModel {
 public:
  struct Skew {
    std::uint64_t num = 1;
    std::uint64_t den = 1;
  };

  ClockSkewModel(std::shared_ptr<const NetworkModel> inner,
                 std::vector<Skew> perProcess);

  /// Skews spread linearly from `slowest` (e.g. 3/1) at p=0 down to
  /// `fastest` (e.g. 1/2) at p=n-1.
  static std::shared_ptr<ClockSkewModel> spread(
      std::shared_ptr<const NetworkModel> inner, std::size_t processCount,
      Skew slowest, Skew fastest);

  void schedule(const LinkSend& send, Rng& rng,
                std::vector<Time>& arrivals) const override;
  Time lambdaPeriod(ProcessId p, Time basePeriod) const override;
  bool mayDuplicate() const override;
  bool mayDrop() const override { return inner_->mayDrop(); }
  int compositionRank() const override { return kRankClockSkew; }
  const NetworkModel* innerModel() const override { return inner_.get(); }
  std::string name() const override;

 private:
  std::shared_ptr<const NetworkModel> inner_;
  std::vector<Skew> skews_;
};

}  // namespace wfd
