#include "checkers/trace_digest.h"

#include "ec/ec_types.h"
#include "etob/commit_etob.h"
#include "rsm/gossip_lww.h"

namespace wfd {

namespace {

void mixValue(TraceHasher& h, const Value& v) {
  h.mix(v.size());
  for (std::uint64_t w : v) h.mix(w);
}

/// Folds in the content of a known output payload; unknown types fold a
/// fixed marker only (their timing is still covered by the caller).
void mixOutput(TraceHasher& h, const Payload& p) {
  if (const auto* d = p.as<EcDecision>()) {
    h.mix(1);
    h.mix(d->instance);
    mixValue(h, d->value);
  } else if (const auto* d = p.as<EicDecision>()) {
    h.mix(2);
    h.mix(d->instance);
    mixValue(h, d->value);
  } else if (const auto* d = p.as<ProposalMade>()) {
    h.mix(3);
    h.mix(d->instance);
    mixValue(h, d->value);
  } else if (const auto* d = p.as<CommittedPrefix>()) {
    h.mix(4);
    h.mix(d->length);
  } else if (const auto* d = p.as<GossipApplied>()) {
    h.mix(5);
    h.mix(d->id);
    h.mix(d->key);
  } else {
    h.mix(0);
  }
}

}  // namespace

std::uint64_t traceDigest(const Trace& trace) {
  TraceHasher h;
  const std::size_t n = trace.processCount();
  h.mix(n);
  for (ProcessId p = 0; p < n; ++p) {
    h.mix(trace.stepsTaken(p));
    h.mix(trace.prefixViolations(p));
    h.mix(trace.lastDeliveryChange(p));
    const auto& outputs = trace.outputs(p);
    h.mix(outputs.size());
    for (const OutputEvent& ev : outputs) {
      h.mix(ev.time);
      mixOutput(h, ev.value);
    }
    const auto& snapshots = trace.deliverySnapshots(p);
    h.mix(snapshots.size());
    for (const DeliverySnapshot& s : snapshots) {
      h.mix(s.time);
      h.mix(s.seq.size());
      for (MsgId m : s.seq) h.mix(m);
    }
    const auto& current = trace.currentDelivered(p);
    h.mix(current.size());
    for (MsgId m : current) h.mix(m);
  }
  h.mix(trace.messagesSent());
  h.mix(trace.messagesDelivered());
  h.mix(trace.weightSent());
  return h.digest();
}

}  // namespace wfd
