// Deterministic discrete-event simulator of the paper's system model.
//
// Produces admissible runs: every correct process takes infinitely many
// steps (periodic λ-steps with period Δ_t, the "local timeout"), and
// every message sent to a correct process is eventually received exactly
// once at the automaton boundary (scheduling policy — delays, partitions,
// duplication, reordering, clock skew — is delegated to a pluggable
// NetworkModel; partition windows only defer delivery, never drop). All
// nondeterminism is drawn from one seeded Rng, so a (config, pattern,
// model, seed) tuple fully determines the run.
//
// Exactly-once rides the message envelope: every network copy of one
// send — duplicates and retransmissions alike — points at one
// MessageRecord, and its `delivered` flag swallows every copy after the
// first. No table is keyed by message uid.
//
// Fair-lossy networks: when the model reports mayDrop(), the simulator
// arms a stubborn retransmission layer beneath the automata — every data
// send is acked by the receiver and retransmitted with capped
// exponential backoff (initialRto / nextBackoff below) until acked or an
// endpoint crashes; the retransmission state lives on the same envelope.
// Link traffic (acks, retry timers, retransmitted copies) counts toward
// eventsProcessed/maxEvents but NEVER touches the trace, so trace
// digests compare across lossy and lossless runs of the same protocol
// schedule. A separate link Rng keeps retransmission scheduling off the
// main draw sequence: at loss rate 0 the run is draw-for-draw identical
// to the legacy reliable path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/automaton.h"
#include "sim/failure_pattern.h"
#include "sim/fd_interface.h"
#include "sim/message.h"
#include "sim/network_model.h"
#include "sim/trace.h"

namespace wfd {

/// Initial retransmission timeout: one full send+ack round trip at the
/// configured worst-case delay plus a λ-period of slack, so under a
/// loss-free uniform-delay network the ack always beats the first retry
/// and the retransmission path schedules nothing (the loss=0 ≡ legacy
/// differential relies on this).
inline Time initialRto(Time maxDelay, Time timeoutPeriod) {
  return 2 * maxDelay + timeoutPeriod + 1;
}

/// Exponential backoff with a cap: doubles until `cap`, then stays.
inline Time nextBackoff(Time rto, Time cap) {
  const Time doubled = rto * 2;
  return doubled < cap ? doubled : cap;
}

/// Multiplier applied to the initial RTO to get the backoff cap.
inline constexpr Time kRtoCapFactor = 16;

/// Scheduler parameters.
struct SimConfig {
  std::size_t processCount = 3;
  std::uint64_t seed = 1;

  /// Hard stop: no event at time > maxTime is processed.
  Time maxTime = 200'000;
  /// Hard stop on total processed events (runaway guard).
  std::uint64_t maxEvents = 4'000'000;

  /// λ-step period Δ_t ("local timeout" granularity).
  Time timeoutPeriod = 10;
  /// Link delay bounds [minDelay, maxDelay]; Δ_c = maxDelay.
  Time minDelay = 40;
  Time maxDelay = 60;
  /// If true every message takes exactly maxDelay — used by the E1
  /// latency experiment to count communication steps as latency/Δ_c.
  bool fixedDelay = false;

  /// Keep full d_i snapshot history in the trace (tests: yes, benches:
  /// usually no — aggregates suffice).
  bool keepDeliverySnapshots = true;
};

/// Discrete-event simulator. Owns the automata, the virtual clock, the
/// in-flight message queue, and the run trace.
class Simulator {
 public:
  /// Without an explicit model, a UniformDelayModel is built from the
  /// config's [minDelay, maxDelay] / fixedDelay fields — bit-for-bit the
  /// pre-NetworkModel scheduling for any (config, pattern, seed) triple.
  Simulator(SimConfig config, FailurePattern pattern,
            std::shared_ptr<const FailureDetector> detector,
            std::shared_ptr<const NetworkModel> network = nullptr);

  /// Installs the automaton of process p. Must be called for every p
  /// before running.
  void addProcess(ProcessId p, std::unique_ptr<Automaton> automaton);

  /// Schedules an application input for p at time t.
  void scheduleInput(ProcessId p, Time t, Payload input);

  /// Adds a partition on top of whatever the network model scheduled:
  /// arrivals on the links `spec` cuts that fall inside one of its
  /// windows are deferred to the window's end (links stay reliable). The
  /// live counterpart of a PartitionModel layer; an empty window (width
  /// 0) is a no-op.
  void addPartition(PartitionSpec spec);

  /// Runs until maxTime / maxEvents.
  void run();

  /// Incremental stepping: processes every pending event with time <= t
  /// (still bounded by maxTime / maxEvents), then stops — the next event,
  /// if any, is strictly later than t. Interleaving runUntilTime calls
  /// with run()/runUntil() is sound: all of them drain the same event
  /// queue in the same order, so a run split into arbitrary increments
  /// is bit-for-bit the run executed in one go. Returns true while the
  /// run can still make progress (events remain and no limit was hit).
  bool runUntilTime(Time t);

  /// Timestamp of the earliest pending event; nullopt when the queue is
  /// empty. (The facade's quiescence detection peeks at this.)
  std::optional<Time> nextEventTime() const;

  /// Runs until the predicate holds or the limits hit. Returns true iff
  /// the predicate held.
  ///
  /// Contract: the predicate is evaluated once before any event, then
  /// after every `checkEvery`-th processed event, and once more after
  /// the final event. With checkEvery == 1 the run therefore stops at
  /// the EARLIEST event boundary at which the predicate holds — now()
  /// is the timestamp of the first satisfying event. With checkEvery > 1
  /// up to checkEvery - 1 further events may be processed first, so
  /// now() can overshoot the first satisfying time by the span of those
  /// events (the default trades that precision for fewer predicate
  /// evaluations; pass 1 when the stop time itself is asserted on).
  bool runUntil(const std::function<bool(const Simulator&)>& pred,
                std::uint64_t checkEvery = 64);

  /// Live fault injection: marks p as crashing at time t (>= now). From t
  /// on, p takes no further steps and messages addressed to it vanish —
  /// exactly as if the crash had been in the pattern from the start.
  /// Events already processed are untouched, so determinism is preserved:
  /// a run is a function of (config, pattern, model, seed) PLUS the
  /// sequence of injection calls and their times. Note the failure
  /// detector keeps its own view; callers that inject crashes should
  /// swap the detector too (setDetector) or its history may stop being
  /// valid for the new pattern (the api::Cluster facade does both).
  void setCrash(ProcessId p, Time t);

  /// Replaces the failure detector oracle. Future steps query the new
  /// one; past queries are already baked into the trace. Any detector
  /// swap mid-run defines a composite history: valid whenever the new
  /// detector's history is valid for the (possibly updated) pattern from
  /// now on — e.g. a fresh OmegaFd re-stabilizing after an injected
  /// crash.
  void setDetector(std::shared_ptr<const FailureDetector> detector);

  /// Observation hooks for push-style consumers (api::Cluster delivery
  /// observers). Called synchronously right after the trace records the
  /// corresponding effect; hooks must not mutate the simulator. Replacing
  /// a hook mid-run is allowed; hooks never affect scheduling, so runs
  /// with and without hooks are bit-for-bit identical.
  using DeliveryHook =
      std::function<void(ProcessId, Time, const std::vector<MsgId>&)>;
  using OutputHook = std::function<void(ProcessId, Time, const Payload&)>;
  void setDeliveryHook(DeliveryHook hook) { deliveryHook_ = std::move(hook); }
  void setOutputHook(OutputHook hook) { outputHook_ = std::move(hook); }

  Time now() const { return now_; }
  std::uint64_t eventsProcessed() const { return eventsProcessed_; }
  const Trace& trace() const { return trace_; }
  const FailurePattern& failurePattern() const { return pattern_; }
  const SimConfig& config() const { return config_; }
  const FailureDetector& detector() const { return *detector_; }
  const NetworkModel& network() const { return *network_; }
  /// Network-layer duplicates suppressed at the automaton boundary.
  std::uint64_t duplicatesSuppressed() const { return duplicatesSuppressed_; }

  /// Retransmission-layer statistics; all 0 on lossless (mayDrop() ==
  /// false) networks, where the layer is fully disabled.
  bool linkLayerActive() const { return linkActive_; }
  /// Sends for which the lossy model scheduled zero copies (recovered by
  /// retransmission).
  std::uint64_t linkDroppedSends() const { return linkDroppedSends_; }
  std::uint64_t linkRetransmissions() const { return linkRetransmissions_; }
  /// Tracked sends dropped because an endpoint crashed (bounded-buffer
  /// drain).
  std::uint64_t linkDrained() const { return linkDrained_; }
  std::uint64_t linkAcksScheduled() const { return linkAcksScheduled_; }
  std::uint64_t linkAcksDelivered() const { return linkAcksDelivered_; }
  /// In-flight (sent, not yet acked or drained) tracked sends.
  std::size_t pendingLinkTx() const { return pendingLinkTx_; }

  /// Application inputs scheduled but not yet handed to their automaton
  /// (quiescence detection: a service with pending inputs is not done).
  std::uint64_t pendingInputs() const { return pendingInputs_; }

  /// Latest arrival time ever scheduled for a message (monotone upper
  /// bound; 0 before the first send). Quiescence detection uses it to see
  /// through partition windows: a message deferred far past now is
  /// pending work even though nothing moves meanwhile.
  Time latestScheduledArrival() const { return latestScheduledArrival_; }

  /// Live automaton state (tests peek at protocol internals).
  const Automaton& automaton(ProcessId p) const { return *automata_.at(p); }
  Automaton& automaton(ProcessId p) { return *automata_.at(p); }

 private:
  enum class EventKind : std::uint8_t {
    kMessage,
    kTimeout,
    kInput,
    /// Link-layer ack arriving at the original sender (slot = the acked
    /// envelope).
    kLinkAck,
    /// Retry timer firing at the sender (slot = the envelope to re-check).
    kLinkRetry,
  };

  /// Slim heap node: what the binary heap actually sifts. The message /
  /// input body lives in a side arena addressed by `slot`, so heap
  /// operations move 32 trivially-copyable bytes instead of a ~100-byte
  /// struct with two shared_ptr members (refcount traffic on every
  /// sift level was a top cost at n=256). Event order is a pure function
  /// of (time, seq) — identical to the old priority_queue.
  struct EventNode {
    Time time = 0;
    std::uint64_t seq = 0;  // FIFO tie-break
    std::uint32_t slot = kNoSlot;
    EventKind kind = EventKind::kTimeout;
    ProcessId target = kNoProcess;
  };

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// One network envelope per (send, destination), shared by every
  /// scheduled copy of it: network duplicates and retransmissions alike.
  /// The payload is released when `refs` reaches 0; the slot is recycled
  /// only once no link event names it either, so a late ack or a stale
  /// retry timer never reads a recycled slot.
  struct MessageRecord {
    Message msg;
    /// Copies still in the heap, plus the link layer's hold while tracked.
    std::uint32_t refs = 0;
    /// Ack and retry events in the heap that name this slot.
    std::uint32_t linkEvents = 0;
    /// Current retransmission timeout (link layer armed only).
    Time rto = 0;
    /// A copy already reached the target automaton: later ones are
    /// suppressed (exactly-once at the boundary).
    bool delivered = false;
    /// Unacked and not drained: the sender still retransmits it.
    bool tracked = false;
  };

  static bool nodeBefore(const EventNode& a, const EventNode& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void push(EventNode e);
  void popHeap();
  std::uint32_t allocMessageSlot();
  /// Drops one reference (a heap copy or the link hold).
  void releaseMessageSlot(std::uint32_t slot);
  /// Drops the reference of one fired ack or retry event.
  void releaseLinkEvent(std::uint32_t slot);
  /// Ends tracking of an envelope (acked or drained): releases the hold.
  void untrack(std::uint32_t slot);
  std::uint32_t allocInputSlot(Payload input);
  void releaseInputSlot(std::uint32_t slot);
  void scheduleLinkAck(std::uint32_t slot);
  /// Arms a retry timer; the caller accounts for its linkEvents reference.
  void scheduleLinkRetry(std::uint32_t slot, Time delay);
  void handleLinkAck(std::uint32_t slot);
  void handleLinkRetry(std::uint32_t slot);
  void applyEffects(ProcessId self, Effects& fx);
  bool processOne();  // false when out of events/limits
  void ensureStarted();

  SimConfig config_;
  FailurePattern pattern_;
  std::shared_ptr<const FailureDetector> detector_;
  std::shared_ptr<const NetworkModel> network_;
  Rng rng_;
  std::vector<std::unique_ptr<Automaton>> automata_;
  /// Binary min-heap over (time, seq); bodies live in the arenas below.
  std::vector<EventNode> heap_;
  std::vector<MessageRecord> messageArena_;
  std::vector<std::uint32_t> freeMessageSlots_;
  std::vector<Payload> inputArena_;
  std::vector<std::uint32_t> freeInputSlots_;
  /// addPartition windows, applied through the shared deferral
  /// (network_model.h) on top of whatever the network model scheduled.
  std::vector<PartitionSpec> partitions_;
  /// Scratch buffer for NetworkModel::schedule (avoids per-send allocs).
  std::vector<Time> arrivalScratch_;
  /// Reused per-step effects collector (keeps its vectors' capacity
  /// across steps instead of reallocating on every send-producing step).
  Effects effectsScratch_;
  /// Per-process FD value cache keyed by the detector's change-epoch
  /// (FailureDetector::epochAt): the value is recomputed only when the
  /// epoch moved, so FD history queries are amortized O(1) per step.
  /// Invalidated wholesale by setDetector.
  struct FdCacheEntry {
    std::uint64_t epoch = 0;
    bool valid = false;
    FdValue value;
  };
  std::vector<FdCacheEntry> fdCache_;
  /// Reused per-step context: copy-assigning the cached FdValue into it
  /// reuses the quorum/suspects vector capacity instead of allocating.
  StepContext ctxScratch_;
  DeliveryHook deliveryHook_;
  OutputHook outputHook_;
  Trace trace_;
  /// Stubborn retransmission layer, armed iff network_->mayDrop(). All
  /// link-layer randomness (ack/retransmit scheduling through the model)
  /// draws from linkRng_, not rng_: the main draw sequence stays
  /// identical to the legacy reliable path, which is what makes the
  /// loss=0-with-retry ≡ legacy differential hold bit-for-bit.
  Rng linkRng_;
  bool linkActive_ = false;
  Time rto0_ = 0;
  Time rtoCap_ = 0;
  std::size_t pendingLinkTx_ = 0;
  std::uint64_t linkRetransmissions_ = 0;
  std::uint64_t linkDrained_ = 0;
  std::uint64_t linkAcksScheduled_ = 0;
  std::uint64_t linkAcksDelivered_ = 0;
  std::uint64_t linkDroppedSends_ = 0;
  std::uint64_t nextAckUid_ = 0;
  Time now_ = 0;
  std::uint64_t eventsProcessed_ = 0;
  std::uint64_t duplicatesSuppressed_ = 0;
  std::uint64_t pendingInputs_ = 0;
  Time latestScheduledArrival_ = 0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t nextMsgUid_ = 0;
  bool started_ = false;
};

}  // namespace wfd
