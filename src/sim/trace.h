// Run trace: everything the property checkers and benches need to verify
// the abstractions' specifications over an admissible run.
//
// For every process the trace records (a) append-only outputs (EC
// decisions, extracted leaders, ...) and (b) the evolution of the
// delivery-sequence output variable d_i(t). Because ETOB may rewrite
// d_i before time τ, the trace also keeps per-process counters that need
// no snapshot history (prefix violations, their last time, the last
// change), so long benchmark runs can drop the snapshots. Per-message
// timings come from the simulator's delivery hook instead (fanned out by
// api::Cluster::observeDeliveries), which fires on exactly the changes
// recordDelivered reports.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/payload.h"

namespace wfd {

/// One append-only output event of a process.
struct OutputEvent {
  Time time = 0;
  /// Per-process record order, shared with DeliverySnapshot::order: the
  /// simulated clock is coarse (several records can share one timestamp
  /// within a step), so checkers that care whether an output happened
  /// before or after a d_i update — the commit checker does — order by
  /// this instead of by time.
  std::uint64_t order = 0;
  Payload value;
};

/// One observed value of d_i (recorded only when it changes).
struct DeliverySnapshot {
  Time time = 0;
  /// Per-process record order (see OutputEvent::order).
  std::uint64_t order = 0;
  std::vector<MsgId> seq;
};

class Trace {
 public:
  /// If keepSnapshots is false, only the counters are maintained (benches).
  explicit Trace(std::size_t processCount, bool keepSnapshots = true);

  std::size_t processCount() const { return outputs_.size(); }

  void recordOutput(ProcessId p, Time t, Payload value);
  /// Returns true iff the sequence actually changed (an unchanged d_i is
  /// not re-recorded; observers key off the same notion of "change").
  bool recordDelivered(ProcessId p, Time t, std::vector<MsgId> seq);
  /// Records one sent message of the given abstract weight (words).
  void countSend(std::uint64_t weight) {
    ++messagesSent_;
    weightSent_ += weight;
  }
  void countDelivery() { ++messagesDelivered_; }
  void countStep(ProcessId p) { ++stepsTaken_.at(p); }

  const std::vector<OutputEvent>& outputs(ProcessId p) const { return outputs_.at(p); }

  /// Full d_i history (empty when snapshots are disabled).
  const std::vector<DeliverySnapshot>& deliverySnapshots(ProcessId p) const {
    return snapshots_.at(p);
  }

  /// Latest value of d_i.
  const std::vector<MsgId>& currentDelivered(ProcessId p) const {
    return current_.at(p);
  }

  /// Number of d_i updates where the previous sequence was not a prefix
  /// of the new one (a revocation/reorder; forbidden in strong TOB, and
  /// forbidden after τ in ETOB).
  std::uint64_t prefixViolations(ProcessId p) const { return prefixViolations_.at(p); }

  /// Time of the last prefix violation at p (0 if none). An upper bound
  /// witness for the run's convergence time τ̂.
  Time lastPrefixViolation(ProcessId p) const { return lastViolationAt_.at(p); }

  /// Last time d_i changed at all at p (0 if never set).
  Time lastDeliveryChange(ProcessId p) const { return lastChangeAt_.at(p); }

  std::uint64_t messagesSent() const { return messagesSent_; }
  std::uint64_t messagesDelivered() const { return messagesDelivered_; }
  /// Total abstract payload weight sent (the ablation benches' "bytes").
  std::uint64_t weightSent() const { return weightSent_; }
  std::uint64_t stepsTaken(ProcessId p) const { return stepsTaken_.at(p); }

 private:
  bool keepSnapshots_;
  std::vector<std::vector<OutputEvent>> outputs_;
  std::vector<std::vector<DeliverySnapshot>> snapshots_;
  std::vector<std::vector<MsgId>> current_;
  std::vector<std::uint64_t> prefixViolations_;
  std::vector<Time> lastViolationAt_;
  std::vector<Time> lastChangeAt_;
  std::vector<std::uint64_t> stepsTaken_;
  /// Per-process monotone record counter stamped on outputs + snapshots.
  std::vector<std::uint64_t> recordOrder_;
  std::uint64_t messagesSent_ = 0;
  std::uint64_t messagesDelivered_ = 0;
  std::uint64_t weightSent_ = 0;
};

}  // namespace wfd
