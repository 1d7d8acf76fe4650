#include "shard/shard_router.h"

#include <algorithm>

#include "common/ensure.h"
#include "rsm/state_machines.h"

namespace wfd {

ShardRouter::ShardRouter(ShardedService& service) : service_(&service) {
  folds_.resize(service.shardCount());
}

std::size_t ShardRouter::put(std::uint64_t key, std::uint64_t value) {
  const std::size_t s = service_->ownerOf(key);
  Client c = service_->shard(s).client(service_->readReplicaOf(s));
  c.put(key, value);
  RouterOp op;
  op.kind = RouterOp::Kind::kPut;
  op.key = key;
  op.value = value;
  op.time = service_->now() + 1;
  op.shard = s;
  ops_.push_back(op);
  pending_.push_back(ops_.size() - 1);
  return ops_.size() - 1;
}

std::optional<std::uint64_t> ShardRouter::get(std::uint64_t key) {
  poll();
  const std::size_t s = service_->ownerOf(key);
  const FoldState& f = folds_[s];
  RouterOp op;
  op.kind = RouterOp::Kind::kGet;
  op.key = key;
  op.time = service_->now();
  op.shard = s;
  const auto it = f.kv.find(key);
  if (it != f.kv.end()) {
    op.hasValue = true;
    op.value = it->second;
    op.version = f.versions.at(key);
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
  Client c = service_->shard(s).client(service_->readReplicaOf(s));
  std::vector<MsgId> prefix = c.committedPrefix();
  FoldState& f = folds_[s];
  std::size_t from = f.folded.size();
  const bool extension =
      prefix.size() >= f.folded.size() &&
      std::equal(f.folded.begin(), f.folded.end(), prefix.begin());
  if (!extension) {
    f.kv.clear();
    f.versions.clear();
    ++refolds_;
    from = 0;
  }
  for (std::size_t i = from; i < prefix.size(); ++i) {
    const std::vector<std::uint64_t>* body = c.findBody(prefix[i]);
    WFD_ENSURE_MSG(body != nullptr, "committed command with unknown content");
    if (body->size() == 3 &&
        (*body)[0] == static_cast<std::uint64_t>(SmOp::kPut)) {
      const std::uint64_t key = (*body)[1];
      const std::uint64_t value = (*body)[2];
      f.kv[key] = value;
      ++f.versions[key];
      // Resolve the earliest pending put matching this command. The
      // scenario workloads write unique (key, value) pairs, so the
      // match is unambiguous there; with duplicates, first-pending is
      // the conservative reading (a later duplicate can only commit
      // later).
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        RouterOp& op = ops_[*it];
        if (op.shard == s && op.key == key && op.value == value) {
          op.committed = true;
          op.commitTime = service_->now();
          pending_.erase(it);
          break;
        }
      }
    }
  }
  f.folded = std::move(prefix);
}

std::size_t ShardRouter::pendingPuts() const { return pending_.size(); }

std::size_t ShardRouter::foldedLen(std::size_t s) const {
  WFD_ENSURE_MSG(s < folds_.size(), "shard index out of range");
  return folds_[s].folded.size();
}

}  // namespace wfd
