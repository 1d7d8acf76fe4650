#include "sim/trace.h"

#include <algorithm>

namespace wfd {

Trace::Trace(std::size_t processCount, bool keepSnapshots)
    : keepSnapshots_(keepSnapshots),
      outputs_(processCount),
      snapshots_(processCount),
      current_(processCount),
      prefixViolations_(processCount, 0),
      lastViolationAt_(processCount, 0),
      lastChangeAt_(processCount, 0),
      stepsTaken_(processCount, 0),
      recordOrder_(processCount, 0) {}

void Trace::recordOutput(ProcessId p, Time t, Payload value) {
  outputs_.at(p).push_back(OutputEvent{t, recordOrder_.at(p)++, std::move(value)});
}

bool Trace::recordDelivered(ProcessId p, Time t, std::vector<MsgId> seq) {
  std::vector<MsgId>& old = current_.at(p);
  if (seq == old) return false;  // no change; keep traces compact

  // Prefix check: old must be a prefix of seq for the update to be a pure
  // extension (no revocation or reorder).
  const bool isExtension =
      seq.size() >= old.size() && std::equal(old.begin(), old.end(), seq.begin());
  if (!isExtension) {
    ++prefixViolations_.at(p);
    lastViolationAt_.at(p) = t;
  }
  lastChangeAt_.at(p) = t;

  old = std::move(seq);
  if (keepSnapshots_) {
    snapshots_.at(p).push_back(
        DeliverySnapshot{t, recordOrder_.at(p)++, current_.at(p)});
  }
  return true;
}

}  // namespace wfd
