#include "sim/simulator.h"

#include <algorithm>

#include "common/ensure.h"
#include "common/hash.h"

namespace wfd {

namespace {

/// Deferral point of `at` under one spec; `at` itself if outside windows.
Time deferOnce(const PartitionSpec& s, ProcessId from, ProcessId to, Time at) {
  if (!s.cuts(from, to)) return at;
  if (s.period == 0) {
    return (at >= s.start && at < s.start + s.width) ? s.start + s.width : at;
  }
  if (at < s.start) return at;
  const Time phase = (at - s.start) % s.period;
  return phase < s.width ? at + (s.width - phase) : at;
}

}  // namespace

Time deferPastPartitions(const std::vector<PartitionSpec>& specs,
                         ProcessId from, ProcessId to, Time at) {
  if (specs.empty()) return at;
  // Windows of different specs may chain; iterate to a fixed point. Each
  // pass that moves strictly advances time past some window, so for any
  // admissible spec set (every link sees gaps) this converges in a few
  // passes. Spec sets whose windows jointly cover all time on a link
  // would iterate forever — that is a dropped message in disguise, so
  // the pass bound turns it into an invariant error instead of a hang.
  std::size_t passes = 0;
  bool moved = true;
  while (moved) {
    WFD_ENSURE_MSG(++passes <= 1000,
                   "partition specs jointly cover all time on a link "
                   "(message would never be delivered)");
    moved = false;
    for (const PartitionSpec& s : specs) {
      const Time deferred = deferOnce(s, from, to, at);
      if (deferred != at) {
        at = deferred;
        moved = true;
      }
    }
  }
  return at;
}

std::vector<ClockSkew> clockSkewSpread(std::size_t processCount,
                                       ClockSkew slowest, ClockSkew fastest) {
  WFD_ENSURE(processCount >= 2);
  // Interpolate the scale factor linearly in integer per-mille so the
  // spread is exact and platform-independent.
  const std::int64_t lo =
      static_cast<std::int64_t>(slowest.num * 1000 / slowest.den);
  const std::int64_t hi =
      static_cast<std::int64_t>(fastest.num * 1000 / fastest.den);
  std::vector<ClockSkew> skews(processCount);
  for (std::size_t p = 0; p < processCount; ++p) {
    const std::int64_t permille =
        lo + (hi - lo) * static_cast<std::int64_t>(p) /
                 static_cast<std::int64_t>(processCount - 1);
    skews[p] = ClockSkew{
        static_cast<std::uint64_t>(std::max<std::int64_t>(permille, 1)), 1000};
  }
  return skews;
}

Simulator::Simulator(SimConfig config, FailurePattern pattern,
                     std::shared_ptr<const FailureDetector> detector,
                     std::shared_ptr<const NetworkModel> network)
    : config_(config),
      pattern_(std::move(pattern)),
      detector_(std::move(detector)),
      network_(std::move(network)),
      rng_(config.seed),
      automata_(config.processCount),
      fdCache_(config.processCount),
      trace_(config.processCount, config.keepDeliverySnapshots),
      linkRng_(splitmix64(config.seed ^ 0x6c696e6b2d726e67ULL)) {
  WFD_ENSURE(config_.processCount >= 2);
  WFD_ENSURE(pattern_.size() == config_.processCount);
  WFD_ENSURE(detector_ != nullptr);
  WFD_ENSURE(config_.minDelay >= 1 && config_.minDelay <= config_.maxDelay);
  WFD_ENSURE(config_.timeoutPeriod >= 1);
  WFD_ENSURE(config_.clockSkew.empty() ||
             config_.clockSkew.size() == config_.processCount);
  for (const ClockSkew& s : config_.clockSkew) {
    WFD_ENSURE(s.num >= 1 && s.den >= 1);
  }
  for (const PartitionSpec& spec : config_.partitions) addPartition(spec);
  if (!network_) {
    network_ = std::make_shared<UniformDelayModel>(
        config_.minDelay, config_.maxDelay, config_.fixedDelay);
  }
  ensureCanonicalComposition(*network_);
  linkActive_ = network_->mayDrop();
  if (linkActive_) {
    rto0_ = initialRto(config_.maxDelay, config_.timeoutPeriod);
    rtoCap_ = kRtoCapFactor * rto0_;
  }
}

void Simulator::addProcess(ProcessId p, std::unique_ptr<Automaton> automaton) {
  WFD_ENSURE(p < automata_.size());
  WFD_ENSURE_MSG(!automata_[p], "process installed twice");
  WFD_ENSURE(automaton != nullptr);
  automata_[p] = std::move(automaton);
}

void Simulator::scheduleInput(ProcessId p, Time t, Payload input) {
  WFD_ENSURE(p < automata_.size());
  EventNode e;
  e.time = t;
  e.kind = EventKind::kInput;
  e.target = p;
  e.slot = allocInputSlot(std::move(input));
  ++pendingInputs_;
  queue_.push(e);
}

void Simulator::addPartition(PartitionSpec spec) {
  // Recurring windows must leave a gap, or deferral would chase the
  // window forever and delivery would never happen (inadmissible).
  WFD_ENSURE(spec.period == 0 || spec.width < spec.period);
  if (spec.width == 0) return;  // empty window: no-op
  partitions_.push_back(std::move(spec));
}

std::uint32_t Simulator::allocMessageSlot() {
  if (!freeMessageSlots_.empty()) {
    const std::uint32_t slot = freeMessageSlots_.back();
    freeMessageSlots_.pop_back();
    return slot;
  }
  WFD_ENSURE_MSG(messageArena_.size() < kNoSlot, "message arena exhausted");
  messageArena_.emplace_back();
  return static_cast<std::uint32_t>(messageArena_.size() - 1);
}

void Simulator::releaseMessageSlot(std::uint32_t slot) {
  MessageRecord& rec = messageArena_[slot];
  if (--rec.refs > 0) return;
  rec.msg.payload = Payload();
  if (rec.linkEvents == 0) freeMessageSlots_.push_back(slot);
}

void Simulator::releaseLinkEvent(std::uint32_t slot) {
  MessageRecord& rec = messageArena_[slot];
  if (--rec.linkEvents == 0 && rec.refs == 0) freeMessageSlots_.push_back(slot);
}

void Simulator::untrack(std::uint32_t slot) {
  messageArena_[slot].tracked = false;
  --pendingLinkTx_;
  releaseMessageSlot(slot);
}

std::uint32_t Simulator::allocInputSlot(Payload input) {
  if (!freeInputSlots_.empty()) {
    const std::uint32_t slot = freeInputSlots_.back();
    freeInputSlots_.pop_back();
    inputArena_[slot] = std::move(input);
    return slot;
  }
  WFD_ENSURE_MSG(inputArena_.size() < kNoSlot, "input arena exhausted");
  inputArena_.push_back(std::move(input));
  return static_cast<std::uint32_t>(inputArena_.size() - 1);
}

void Simulator::releaseInputSlot(std::uint32_t slot) {
  inputArena_[slot] = Payload();
  freeInputSlots_.push_back(slot);
}

void Simulator::scheduleLinkAck(std::uint32_t slot) {
  // Acks ride the same lossy network as data (and may themselves be
  // dropped or duplicated — only the first retires anything), but draw
  // from the link rng so data scheduling stays on the legacy draw
  // sequence.
  MessageRecord& rec = messageArena_[slot];
  const ProcessId receiver = rec.msg.to;
  const ProcessId sender = rec.msg.from;
  arrivalScratch_.clear();
  network_->schedule(LinkSend{receiver, sender, now_, nextAckUid_++},
                     linkRng_, arrivalScratch_);
  ++linkAcksScheduled_;
  rec.linkEvents += static_cast<std::uint32_t>(arrivalScratch_.size());
  for (Time at : arrivalScratch_) {
    WFD_ENSURE_MSG(at > now_, "network model scheduled a non-causal arrival");
    EventNode e;
    e.time = deferPastPartitions(partitions_, receiver, sender, at);
    e.kind = EventKind::kLinkAck;
    e.target = sender;
    e.slot = slot;
    // No latestScheduledArrival_ update: link-layer traffic is not
    // pending protocol work, so it must not defer quiescence detection.
    queue_.push(e);
  }
}

void Simulator::scheduleLinkRetry(std::uint32_t slot, Time delay) {
  EventNode e;
  e.time = now_ + delay;
  e.kind = EventKind::kLinkRetry;
  e.target = messageArena_[slot].msg.from;
  e.slot = slot;
  queue_.push(e);
}

void Simulator::handleLinkAck(std::uint32_t slot) {
  ++linkAcksDelivered_;
  // The first ack retires the send; duplicates and late acks are no-ops.
  if (messageArena_[slot].tracked) untrack(slot);
  releaseLinkEvent(slot);
}

void Simulator::handleLinkRetry(std::uint32_t slot) {
  MessageRecord& rec = messageArena_[slot];
  if (!rec.tracked) {  // already acked or drained — timer is stale
    releaseLinkEvent(slot);
    return;
  }
  const ProcessId from = rec.msg.from;
  const ProcessId to = rec.msg.to;
  if (pattern_.crashed(from, now_) || pattern_.crashed(to, now_)) {
    // Bounded retransmit buffers: a crashed endpoint drains the send
    // instead of retransmitting forever (messages to the dead vanish
    // anyway, and a dead sender sends nothing).
    ++linkDrained_;
    untrack(slot);
    releaseLinkEvent(slot);
    return;
  }
  ++linkRetransmissions_;
  rec.rto = nextBackoff(rec.rto, rtoCap_);
  arrivalScratch_.clear();
  network_->schedule(LinkSend{from, to, now_, rec.msg.uid}, linkRng_,
                     arrivalScratch_);
  rec.refs += static_cast<std::uint32_t>(arrivalScratch_.size());
  for (Time at : arrivalScratch_) {
    WFD_ENSURE_MSG(at > now_, "network model scheduled a non-causal arrival");
    EventNode e;
    e.time = deferPastPartitions(partitions_, from, to, at);
    e.kind = EventKind::kMessage;
    e.target = to;
    e.slot = slot;
    // Retransmitted DATA copies are pending protocol work (unlike acks
    // and retry timers), so they do push the quiescence horizon.
    latestScheduledArrival_ = std::max(latestScheduledArrival_, e.time);
    queue_.push(e);
  }
  // No trace countSend: retransmissions are link-layer traffic, invisible
  // to the protocol-level trace and its digests. The fired timer's
  // linkEvents reference carries over to the re-armed one.
  scheduleLinkRetry(slot, rec.rto);
}

void Simulator::ensureStarted() {
  if (started_) return;
  started_ = true;
  for (ProcessId p = 0; p < automata_.size(); ++p) {
    WFD_ENSURE_MSG(automata_[p] != nullptr, "missing automaton for a process");
    EventNode e;
    // Stagger initial λ-steps so symmetric protocols don't act in
    // lock-step from time zero.
    e.time = 1 + p;
    e.kind = EventKind::kTimeout;
    e.target = p;
    queue_.push(e);
  }
}

void Simulator::applyEffects(ProcessId self, Effects& fx) {
  for (const OutboundMsg& out : fx.sends()) {
    const auto sendOne = [&](ProcessId dest) {
      const std::uint64_t uid = nextMsgUid_++;
      // The model decides when (and how many network-layer copies of)
      // this send arrives; partition windows apply on top.
      arrivalScratch_.clear();
      network_->schedule(LinkSend{self, dest, now_, uid}, rng_,
                         arrivalScratch_);
      if (arrivalScratch_.empty()) {
        // Only fair-lossy models may drop — and then the retransmission
        // layer below recovers the send.
        WFD_ENSURE_MSG(linkActive_,
                       "network model scheduled no delivery (links are reliable)");
        ++linkDroppedSends_;
      }
      // One envelope regardless of how many network-layer copies were
      // scheduled; the queued nodes all point at it. The retransmission
      // layer holds one extra reference so the payload survives loss.
      const std::uint32_t slot = allocMessageSlot();
      MessageRecord& rec = messageArena_[slot];
      rec.msg.from = self;
      rec.msg.to = dest;
      rec.msg.payload = out.payload;
      rec.msg.sentAt = now_;
      rec.msg.uid = uid;
      rec.refs = static_cast<std::uint32_t>(arrivalScratch_.size()) +
                 (linkActive_ ? 1u : 0u);
      rec.linkEvents = linkActive_ ? 1u : 0u;  // the retry timer below
      rec.rto = rto0_;
      rec.delivered = false;
      rec.tracked = linkActive_;
      for (Time at : arrivalScratch_) {
        WFD_ENSURE_MSG(at > now_, "network model scheduled a non-causal arrival");
        EventNode e;
        e.time = deferPastPartitions(partitions_, self, dest, at);
        e.kind = EventKind::kMessage;
        e.target = dest;
        e.slot = slot;
        latestScheduledArrival_ = std::max(latestScheduledArrival_, e.time);
        queue_.push(e);
      }
      if (linkActive_) {
        ++pendingLinkTx_;
        scheduleLinkRetry(slot, rto0_);
      }
      trace_.countSend(out.weight);
    };
    if (out.to == kBroadcast) {
      for (ProcessId dest = 0; dest < automata_.size(); ++dest) sendOne(dest);
    } else {
      WFD_ENSURE(out.to < automata_.size());
      sendOne(out.to);
    }
  }
  // The delivery snapshot is recorded BEFORE the step's outputs: the
  // single delivered() value is the step's final d_i, and outputs (e.g. a
  // CommittedPrefix indication emitted after aligning d_i) describe the
  // post-update state. Checkers that order records within a timestamp
  // (commit_checker via OutputEvent::order) rely on this.
  if (const std::vector<MsgId>* d = fx.delivered()) {
    // The hook fires only on actual changes — the same notion of "d_i
    // changed" the trace snapshots use, so observer streams and snapshot
    // histories line up one to one.
    if (trace_.recordDelivered(self, now_, *d) && deliveryHook_) {
      deliveryHook_(self, now_, *d);
    }
  }
  for (const Payload& out : fx.outputs()) {
    trace_.recordOutput(self, now_, out);
    if (outputHook_) outputHook_(self, now_, out);
  }
}

bool Simulator::processOne() {
  if (eventsProcessed_ >= config_.maxEvents) return false;
  const std::optional<EventNode> due = queue_.popDue(config_.maxTime);
  if (!due) return false;
  const EventNode& e = *due;
  now_ = std::max(now_, e.time);
  ++eventsProcessed_;
  if (e.kind == EventKind::kInput) --pendingInputs_;

  // Link-layer events never reach an automaton, the trace, or the FD
  // cache — they count toward eventsProcessed_ (runaway guard) and
  // nothing else.
  if (e.kind == EventKind::kLinkAck) {
    handleLinkAck(e.slot);
    return true;
  }
  if (e.kind == EventKind::kLinkRetry) {
    handleLinkRetry(e.slot);
    return true;
  }

  const ProcessId p = e.target;
  // Resolve the event body (and release its arena slot) up front; the
  // Payload handle keeps the body alive through the dispatch below.
  ProcessId msgFrom = kNoProcess;
  Payload body;
  if (e.kind == EventKind::kMessage) {
    MessageRecord& rec = messageArena_[e.slot];
    if (pattern_.crashed(p, now_)) {
      // Crashed processes take no steps; their λ-steps stop being
      // rescheduled and messages addressed to them vanish.
      releaseMessageSlot(e.slot);
      return true;
    }
    // Ack EVERY received copy — including ones about to be suppressed as
    // duplicates — because the copy that earned the previous ack may be
    // exactly the one whose ack the network dropped. A crashed receiver
    // (handled above) acks nothing; the sender's retry drains instead.
    if (linkActive_) scheduleLinkAck(e.slot);
    // Exactly-once at the automaton boundary: every copy of this send —
    // network duplicate or retransmission — shares the envelope, so only
    // the first arrival reaches the automaton; later copies are consumed
    // silently.
    if (rec.delivered) {
      ++duplicatesSuppressed_;
      releaseMessageSlot(e.slot);
      return true;
    }
    rec.delivered = true;
    msgFrom = rec.msg.from;
    // This copy is the payload's last reader: every later copy of the
    // send is suppressed above, so the handle moves out of the envelope.
    body = std::move(rec.msg.payload);
    releaseMessageSlot(e.slot);
  } else {
    if (e.kind == EventKind::kInput) {
      body = std::move(inputArena_[e.slot]);
      releaseInputSlot(e.slot);
    }
    if (pattern_.crashed(p, now_)) return true;
  }

  StepContext& ctx = ctxScratch_;
  ctx.now = now_;
  ctx.self = p;
  ctx.processCount = automata_.size();
  FdCacheEntry& fdCache = fdCache_[p];
  const std::uint64_t epoch = detector_->epochAt(p, now_);
  if (!fdCache.valid || fdCache.epoch != epoch) {
    fdCache.value = detector_->valueAt(p, now_);
    fdCache.epoch = epoch;
    fdCache.valid = true;
  }
  ctx.fd = fdCache.value;

  Effects& fx = effectsScratch_;
  fx.clear();
  switch (e.kind) {
    case EventKind::kMessage:
      trace_.countDelivery();
      automata_[p]->onMessage(ctx, msgFrom, body, fx);
      break;
    case EventKind::kTimeout: {
      automata_[p]->onTimeout(ctx, fx);
      EventNode next;
      next.time = now_ + lambdaStepPeriod(config_, p);
      next.kind = EventKind::kTimeout;
      next.target = p;
      queue_.push(next);
      break;
    }
    case EventKind::kInput:
      automata_[p]->onInput(ctx, body, fx);
      break;
    case EventKind::kLinkAck:
    case EventKind::kLinkRetry:
      WFD_ENSURE_MSG(false, "link events are dispatched before this switch");
      break;
  }
  trace_.countStep(p);
  applyEffects(p, fx);
  return true;
}

void Simulator::run() {
  ensureStarted();
  while (processOne()) {
  }
}

bool Simulator::runUntilTime(Time t) {
  ensureStarted();
  while (!queue_.empty() && queue_.top().time <= t) {
    if (!processOne()) return false;
  }
  return !queue_.empty() && queue_.top().time <= config_.maxTime &&
         eventsProcessed_ < config_.maxEvents;
}

std::optional<Time> Simulator::nextEventTime() const {
  if (queue_.empty()) return std::nullopt;
  return queue_.top().time;
}

void Simulator::setCrash(ProcessId p, Time t) {
  WFD_ENSURE(p < automata_.size());
  WFD_ENSURE_MSG(t >= now_, "cannot inject a crash into the past");
  // Crashes are monotone (F(t) subset of F(t+1)): re-crashing an already
  // faulty process can only move its crash time EARLIER than the recorded
  // one if the trace were rewritten — keep the earliest.
  WFD_ENSURE_MSG(pattern_.crashTime(p) >= now_,
                 "process already crashed before now");
  pattern_.setCrash(p, std::min(t, pattern_.crashTime(p)));
}

void Simulator::setDetector(std::shared_ptr<const FailureDetector> detector) {
  WFD_ENSURE(detector != nullptr);
  detector_ = std::move(detector);
  // Epochs of different detectors are incomparable.
  for (FdCacheEntry& e : fdCache_) e.valid = false;
}

bool Simulator::runUntil(const std::function<bool(const Simulator&)>& pred,
                         std::uint64_t checkEvery) {
  WFD_ENSURE(checkEvery >= 1);
  ensureStarted();
  if (pred(*this)) return true;
  std::uint64_t sinceCheck = 0;
  while (processOne()) {
    if (++sinceCheck >= checkEvery) {
      sinceCheck = 0;
      if (pred(*this)) return true;
    }
  }
  return pred(*this);
}

}  // namespace wfd
