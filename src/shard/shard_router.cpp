#include "shard/shard_router.h"

#include <algorithm>

#include "common/ensure.h"
#include "etob/commit_etob.h"
#include "rsm/state_machines.h"

namespace wfd {

ShardRouter::ShardRouter(ShardedService& service) : service_(&service) {
  folds_.resize(service.shardCount());
}

std::size_t ShardRouter::put(std::uint64_t key, std::uint64_t value) {
  const std::size_t s = service_->ownerOf(key);
  Client c = service_->shard(s).client(service_->readReplicaOf(s));
  const MsgId id = c.put(key, value);
  RouterOp op;
  op.kind = RouterOp::Kind::kPut;
  op.key = key;
  op.value = value;
  op.time = service_->now() + 1;
  op.shard = static_cast<std::uint32_t>(s);
  ops_.push_back(op);
  folds_[s].pending.emplace(id, ops_.size() - 1);
  return ops_.size() - 1;
}

std::optional<std::uint64_t> ShardRouter::get(std::uint64_t key) {
  const std::size_t s = service_->ownerOf(key);
  foldShard(s);
  const FoldState& f = folds_[s];
  RouterOp op;
  op.kind = RouterOp::Kind::kGet;
  op.key = key;
  op.time = service_->now();
  op.shard = static_cast<std::uint32_t>(s);
  const auto it = f.kv.find(key);
  if (it != f.kv.end()) {
    op.hasValue = true;
    op.value = it->second.value;
    op.version = it->second.version;
  }
  ops_.push_back(op);
  return op.hasValue ? std::optional<std::uint64_t>(op.value) : std::nullopt;
}

void ShardRouter::poll() {
  for (std::size_t s = 0; s < folds_.size(); ++s) foldShard(s);
}

void ShardRouter::foldShard(std::size_t s) {
  // A shard with no correct replica left has nothing readable; its last
  // fold keeps being served (stale reads are the honest answer there).
  if (service_->correctReplicasOf(s) == 0) return;
  FoldState& f = folds_[s];
  const ProcessId replica = service_->readReplicaOf(s);
  if (replica != f.replica) {
    f.replica = replica;
    f.ordering = &service_->orderingOf(s, replica);
    f.inSync = false;
  }
  const CommitEtobAutomaton& ordering = *f.ordering;
  const std::vector<MsgId>& prefix = ordering.committedPrefix();
  std::size_t from = f.folded.size();
  // In sync with an unchanged conflict count, the prefix only grew since
  // the last fold: it extends `folded` and needs no compare.
  if (!f.inSync || ordering.commitConflicts() != f.conflicts) {
    const std::size_t common = std::min(prefix.size(), from);
    if (!std::equal(prefix.begin(), prefix.begin() + static_cast<std::ptrdiff_t>(common),
                    f.folded.begin())) {
      f.kv.clear();
      f.folded.clear();
      ++refolds_;
      from = 0;
    }
  }
  // A read replica that lags the fold: keep serving the fold until the
  // replica catches up, and compare again on every fold until then.
  f.inSync = prefix.size() >= from;
  f.conflicts = ordering.commitConflicts();
  if (prefix.size() <= from) return;  // nothing new, or lagging
  for (std::size_t i = from; i < prefix.size(); ++i) {
    const AppMsg* m = ordering.findMessage(prefix[i]);
    WFD_ENSURE_MSG(m != nullptr, "committed command with unknown content");
    const std::vector<std::uint64_t>& body = m->body;
    if (body.size() == 3 && body[0] == static_cast<std::uint64_t>(SmOp::kPut)) {
      FoldState::Entry& e = f.kv[body[1]];
      e.value = body[2];
      ++e.version;
    }
    const auto it = f.pending.find(prefix[i]);
    if (it != f.pending.end()) {
      RouterOp& op = ops_[it->second];
      op.committed = true;
      op.commitTime = service_->now();
      f.pending.erase(it);
    }
  }
  f.folded.insert(f.folded.end(),
                  prefix.begin() + static_cast<std::ptrdiff_t>(from), prefix.end());
}

std::size_t ShardRouter::pendingPuts() const {
  std::size_t n = 0;
  for (const FoldState& f : folds_) n += f.pending.size();
  return n;
}

}  // namespace wfd
