// Fair-lossy link decorators: the adversaries the paper's "in any
// environment" liveness claims are actually about. Each decorator wraps
// an inner NetworkModel and may REMOVE copies from its schedule —
// something the base contract forbids (network_model.h) unless the model
// reports mayDrop(), in which case the simulator activates its stubborn
// retransmission layer (sim/simulator.h) so delivery to correct
// processes stays eventually exactly-once.
//
// Design rules shared by all four models:
//  * Drop decisions are keyed at the copy's TENTATIVE ARRIVAL time, not
//    its send time. A partition wrapped outside a lossy layer defers the
//    post-loss schedule; a lossy layer wrapped outside a partition would
//    sample loss at post-heal times — genuinely different runs, which is
//    why compositionRank() pins loss INSIDE partitions and the
//    wrong-order mutation test is non-vacuous.
//  * All models rank kRankLossy and compose between PartitionModel and
//    ClockSkewModel.
//  * mayDrop() is a capability bit, not a rate: IidLossModel at rate 0
//    still reports true, engaging the retransmission path for the
//    loss=0 ≡ legacy differential test. A rate-0 config makes ZERO rng
//    draws, so it is also draw-sequence-neutral.
//  * Burst schedules (GilbertElliottLossModel) are derived by hashing
//    (seed, frame[, link]) — not by mutable Markov state and not from
//    the run Rng — because models are shared, const, and reused across
//    runs; the schedule must be a pure function of the config.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/network_model.h"

namespace wfd {

/// Independent per-copy drop with probability num/den on every affected
/// link, optionally only before `activeUntil` (0 = lossy forever). The
/// memoryless baseline adversary: ~rate fraction of copies vanish,
/// uncorrelated across links and time.
class IidLossModel final : public NetworkModel {
 public:
  struct Config {
    std::uint32_t num = 1;
    std::uint32_t den = 5;  ///< default 20% loss
    /// Copies arriving at or after this time are never dropped; 0 = no
    /// cutoff. Lets scenarios guarantee a clean tail for convergence.
    Time activeUntil = 0;
    /// nullptr = all links lossy.
    std::function<bool(ProcessId from, ProcessId to)> affects;
  };

  IidLossModel(std::shared_ptr<const NetworkModel> inner, Config config);

  void schedule(const LinkSend& send, Rng& rng,
                std::vector<Time>& arrivals) const override;
  Time lambdaPeriod(ProcessId p, Time basePeriod) const override;
  bool mayDuplicate() const override;
  bool mayDrop() const override { return true; }
  int compositionRank() const override { return kRankLossy; }
  const NetworkModel* innerModel() const override { return inner_.get(); }
  std::string name() const override;

 private:
  std::shared_ptr<const NetworkModel> inner_;
  Config config_;
};

/// Gilbert–Elliott two-state burst loss. Time is divided into frames of
/// `framePeriod` ticks; hashing (seed, frame[, link]) decides whether the
/// frame contains a burst window, where inside the frame it starts, and
/// how long it runs (always contained in its frame). Copies arriving
/// inside a burst drop with dropInNum/dropInDen (the "bad" state, e.g.
/// 9/10); copies outside drop with dropOutNum/dropOutDen (the "good"
/// state, usually 0). `correlated` selects one network-wide schedule
/// (radio interference) vs independent per-link schedules (per-path
/// congestion).
class GilbertElliottLossModel final : public NetworkModel {
 public:
  struct Config {
    Time framePeriod = 2000;
    /// Per-frame probability that a burst occurs: burstNum/burstDen.
    std::uint32_t burstNum = 1;
    std::uint32_t burstDen = 2;
    /// Burst window length; must be >= 1 and <= framePeriod.
    Time burstLen = 300;
    /// Drop probability inside a burst (the bad state).
    std::uint32_t dropInNum = 9;
    std::uint32_t dropInDen = 10;
    /// Drop probability outside bursts (the good state).
    std::uint32_t dropOutNum = 0;
    std::uint32_t dropOutDen = 1;
    /// Seeds the hash-derived burst schedule (independent of run seed).
    std::uint64_t seed = 0;
    /// true: one schedule for the whole network; false: per-link.
    bool correlated = true;
    /// Copies arriving at or after this time are never dropped; 0 = none.
    Time activeUntil = 0;
  };

  GilbertElliottLossModel(std::shared_ptr<const NetworkModel> inner,
                          Config config);

  void schedule(const LinkSend& send, Rng& rng,
                std::vector<Time>& arrivals) const override;
  Time lambdaPeriod(ProcessId p, Time basePeriod) const override;
  bool mayDuplicate() const override;
  bool mayDrop() const override { return true; }
  int compositionRank() const override { return kRankLossy; }
  const NetworkModel* innerModel() const override { return inner_.get(); }
  std::string name() const override;

  /// True iff a copy arriving at `at` on (from, to) is inside a burst
  /// window (ignores activeUntil; from/to only matter when !correlated).
  bool inBurst(Time at, ProcessId from, ProcessId to) const;

  /// All burst windows [begin, end) with begin < horizon on (from, to),
  /// clipped to activeUntil when set. Shared with the adaptive failure
  /// detectors and the E13 bench so "the FD sees the same bursts the
  /// network produced" is true by construction, not by copy-paste.
  std::vector<std::pair<Time, Time>> burstWindowsUpTo(Time horizon,
                                                      ProcessId from,
                                                      ProcessId to) const;

 private:
  /// Burst window of frame `frame` on the (hashed) link, or {0,0} if the
  /// frame is burst-free.
  std::pair<Time, Time> frameWindow(std::uint64_t frame, ProcessId from,
                                    ProcessId to) const;

  std::shared_ptr<const NetworkModel> inner_;
  Config config_;
};

/// One directional outage window: copies from `from` to `to` arriving
/// inside an active window are dropped. kNoProcess wildcards a side, so
/// {from = 2, to = kNoProcess} kills everything 2 sends while 2 still
/// hears the world — the one-way partition that symmetric PartitionSpec
/// cannot express and that defeats naive ping-based detectors.
struct OutageSpec {
  Time start = 0;
  Time width = 0;
  /// Recurrence period; 0 = one-shot window [start, start + width).
  Time period = 0;
  ProcessId from = kNoProcess;  ///< kNoProcess = any sender
  ProcessId to = kNoProcess;    ///< kNoProcess = any receiver

  /// True iff this spec kills copies on (f, t) arriving at `at`.
  bool drops(ProcessId f, ProcessId t, Time at) const;
};

/// Decorator dropping copies per a set of OutageSpecs. Deterministic:
/// makes ZERO rng draws, so it is draw-sequence-neutral by construction.
class OneWayOutageModel final : public NetworkModel {
 public:
  OneWayOutageModel(std::shared_ptr<const NetworkModel> inner,
                    std::vector<OutageSpec> specs);

  void schedule(const LinkSend& send, Rng& rng,
                std::vector<Time>& arrivals) const override;
  Time lambdaPeriod(ProcessId p, Time basePeriod) const override;
  bool mayDuplicate() const override;
  bool mayDrop() const override { return true; }
  int compositionRank() const override { return kRankLossy; }
  const NetworkModel* innerModel() const override { return inner_.get(); }
  std::string name() const override;

 private:
  std::shared_ptr<const NetworkModel> inner_;
  std::vector<OutageSpec> specs_;
};

/// Gray failure: one process is degraded, not dead. Every copy touching
/// `process` has its delay inflated by delayNum/delayDen (>= 1 tick), the
/// process's λ-period is stretched by lambdaNum/lambdaDen, and its links
/// optionally drop copies with lossNum/lossDen. The process is correct by
/// the paper's definition — it keeps stepping — but slow and flaky, the
/// regime where FD timeouts either fire spuriously or adapt.
class GrayFailureModel final : public NetworkModel {
 public:
  struct Config {
    ProcessId process = 0;
    /// Delay inflation factor for links touching `process`.
    std::uint64_t delayNum = 3;
    std::uint64_t delayDen = 1;
    /// λ-period inflation factor for `process`.
    std::uint64_t lambdaNum = 2;
    std::uint64_t lambdaDen = 1;
    /// Mild loss on links touching `process`; 0/1 = lossless.
    std::uint32_t lossNum = 0;
    std::uint32_t lossDen = 1;
    /// Inflation and loss apply only to copies arriving before this
    /// time; 0 = degraded forever.
    Time activeUntil = 0;
  };

  GrayFailureModel(std::shared_ptr<const NetworkModel> inner, Config config);

  void schedule(const LinkSend& send, Rng& rng,
                std::vector<Time>& arrivals) const override;
  Time lambdaPeriod(ProcessId p, Time basePeriod) const override;
  bool mayDuplicate() const override;
  bool mayDrop() const override {
    return config_.lossNum > 0 || inner_->mayDrop();
  }
  int compositionRank() const override { return kRankLossy; }
  const NetworkModel* innerModel() const override { return inner_.get(); }
  std::string name() const override;

 private:
  std::shared_ptr<const NetworkModel> inner_;
  Config config_;
};

}  // namespace wfd
