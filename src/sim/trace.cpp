#include "sim/trace.h"

#include "common/ensure.h"

namespace wfd {

Trace::Trace(std::size_t processCount, bool keepSnapshots)
    : keepSnapshots_(keepSnapshots),
      outputs_(processCount),
      snapshots_(processCount),
      current_(processCount),
      perMsg_(processCount),
      prefixViolations_(processCount, 0),
      lastViolationAt_(processCount, 0),
      lastChangeAt_(processCount, 0),
      stepsTaken_(processCount, 0),
      recordOrder_(processCount, 0),
      hasDuplicate_(processCount, 0) {}

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

  // Per-message aggregates: detect presence/position changes.
  auto& stats = perMsg_.at(p);
  if (isExtension && !hasDuplicate_.at(p)) {
    // Extension of a duplicate-free d_i: every old entry keeps its
    // position and stays present, so only the appended ids change.
    for (std::size_t i = old.size(); i < seq.size(); ++i) {
      const auto [it, fresh] = stats.try_emplace(seq[i], MsgDeliveryStats{t, t, true});
      if (fresh) continue;
      // Present already: the id occurs twice in the new d_i.
      if (it->second.presentNow) hasDuplicate_[p] = 1;
      it->second.presentNow = true;
      it->second.lastChange = t;
    }
  } else {
    std::unordered_map<MsgId, std::size_t> newIndex;
    newIndex.reserve(seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) newIndex.emplace(seq[i], i);
    // Messages that disappeared.
    for (std::size_t i = 0; i < old.size(); ++i) {
      if (!newIndex.contains(old[i])) {
        auto it = stats.find(old[i]);
        WFD_ENSURE(it != stats.end());
        it->second.presentNow = false;
        it->second.lastChange = t;
      }
    }
    std::unordered_map<MsgId, std::size_t> oldIndex;
    oldIndex.reserve(old.size());
    for (std::size_t i = 0; i < old.size(); ++i) oldIndex.emplace(old[i], i);
    // Messages that appeared or moved.
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const MsgId m = seq[i];
      auto it = stats.find(m);
      if (it == stats.end()) {
        stats.emplace(m, MsgDeliveryStats{t, t, true});
        continue;
      }
      MsgDeliveryStats& s = it->second;
      auto oldIt = oldIndex.find(m);
      const bool moved = oldIt == oldIndex.end() || oldIt->second != i;
      if (!s.presentNow || moved) {
        s.presentNow = true;
        s.lastChange = t;
      }
    }
    hasDuplicate_[p] = newIndex.size() != seq.size();
  }

  old = std::move(seq);
  if (keepSnapshots_) {
    snapshots_.at(p).push_back(
        DeliverySnapshot{t, recordOrder_.at(p)++, current_.at(p)});
  }
  return true;
}

std::optional<MsgDeliveryStats> Trace::deliveryStats(ProcessId p, MsgId m) const {
  const auto& stats = perMsg_.at(p);
  auto it = stats.find(m);
  if (it == stats.end()) return std::nullopt;
  return it->second;
}

}  // namespace wfd
