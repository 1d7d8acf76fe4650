#include "rsm/gossip_lww.h"

#include <algorithm>

#include "rsm/state_machines.h"

namespace wfd {

void GossipLwwStore::onInput(const StepContext&, const Payload& input, Effects& fx) {
  const auto* bcast = input.as<BroadcastInput>();
  if (bcast == nullptr) return;
  const AppMsg& m = bcast->msg;
  if (m.body.size() != 3 || static_cast<SmOp>(m.body[0]) != SmOp::kPut) return;
  Entry e;
  e.value = m.body[2];
  e.timestamp = ++clock_;
  e.origin = m.origin;
  e.sourceMsg = m.id;
  adopt(m.body[1], e, fx);
}

void GossipLwwStore::onMessage(const StepContext&, ProcessId from,
                               const Payload& msg, Effects& fx) {
  const auto* gossip = msg.as<GossipStateMsg>();
  if (gossip == nullptr) return;
  if (from >= lastMerged_.size()) lastMerged_.resize(from + 1);
  if (lastMerged_[from] == gossip->table) return;
  lastMerged_[from] = gossip->table;
  for (const auto& [key, entry] : *gossip->table) {
    clock_ = std::max(clock_, entry.timestamp);
    adopt(key, entry, fx);
  }
}

void GossipLwwStore::onTimeout(const StepContext&, Effects& fx) {
  if (table_.empty()) return;
  if (published_.empty()) {
    published_ =
        Payload::of(GossipStateMsg{std::make_shared<const Table>(table_)});
  }
  fx.broadcast(published_);
}

void GossipLwwStore::adopt(std::uint64_t key, const Entry& entry, Effects& fx) {
  auto it = table_.find(key);
  const bool wins = it == table_.end() || entry.newerThan(it->second);
  if (!wins) return;
  table_[key] = entry;
  published_ = Payload();
  if (seen_.insert(entry.sourceMsg).second) {
    fx.output(Payload::of(GossipApplied{entry.sourceMsg, key}));
  }
}

}  // namespace wfd
