// Client-side router of the sharded KV service: hashes each op to its
// owning shard (shard/hash_ring.h via the service) and serves reads
// from a FOLD of the shard's §7 committed prefix.
//
// Write path: put(key, v) routes the command to the owner shard's read
// replica and remembers the (key, v) pair as pending. Read path: every
// poll() fetches each shard's committed prefix, decodes the NEW suffix
// of put commands (Client::findBody) into a per-shard key→value map,
// and resolves pending writes it sees commit. A committed prefix can
// only extend under the §7 proviso, so the fold is incremental. Outside
// the proviso, commit-eTOB's strength join (two leaders committing
// conflicting prefixes) can replace a committed prefix; the router then
// refolds from scratch, counted in refolds(). Reads therefore return only
// COMMITTED state — the read-your-writes guarantee the sharded_kv
// checker verifies is "my write is visible once the router saw it
// commit", per shard, the strongest a client can ask of an eventually
// consistent store without blocking.
//
// Every op is appended to an op log (RouterOp) carrying the routing
// decision, the observed value, and the per-(shard, key) fold version —
// the full input to checkShardedKvRun (shard/sharded_kv_checker.h).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "shard/sharded_service.h"

namespace wfd {

/// One routed client operation, as the checker sees it.
struct RouterOp {
  enum class Kind : std::uint8_t { kPut, kGet };

  Kind kind = Kind::kPut;
  std::uint64_t key = 0;
  /// kPut: the written value. kGet: the observed value (valid when
  /// hasValue).
  std::uint64_t value = 0;
  bool hasValue = false;
  /// Service clock when the op was issued.
  Time time = 0;
  /// Shard the op was routed to (ring owner at issue time).
  std::size_t shard = 0;
  /// kPut: a later poll() saw this write in the shard's committed
  /// prefix, at service time commitTime.
  bool committed = false;
  Time commitTime = 0;
  /// kGet: number of put commands the fold had applied to this key on
  /// this shard when the read was served (0 = key unseen). Per
  /// (key, shard) this is non-decreasing across the log — the monotone
  /// clause of the checker.
  std::uint64_t version = 0;
};

class ShardRouter {
 public:
  /// The router borrows the service; one service can carry any number
  /// of routers (the ring is deterministic, so they agree on owners).
  explicit ShardRouter(ShardedService& service);

  /// Routes a put to the owner shard's read replica (scheduled at that
  /// shard's now() + 1). Returns the op-log index.
  std::size_t put(std::uint64_t key, std::uint64_t value);

  /// Serves a read of `key` from the owner shard's committed fold
  /// (poll()s first). nullopt while no committed put for the key has
  /// been observed on that shard.
  std::optional<std::uint64_t> get(std::uint64_t key);

  /// Folds every shard's newly committed commands and resolves pending
  /// writes. get() calls this; exposed so drivers can resolve commit
  /// times eagerly while stepping.
  void poll();

  const std::vector<RouterOp>& ops() const { return ops_; }
  /// Full refolds forced by a committed-prefix rewrite — a conflicting
  /// commit resolved by commit-eTOB's strength join, possible only
  /// outside the §7 proviso.
  std::uint64_t refolds() const { return refolds_; }
  /// Put ops still unresolved (never observed committed).
  std::size_t pendingPuts() const;
  /// Committed commands folded so far on shard s.
  std::size_t foldedLen(std::size_t s) const;

 private:
  struct FoldState {
    /// The committed ids already folded (prefix-compare detects
    /// rewrites).
    std::vector<MsgId> folded;
    std::unordered_map<std::uint64_t, std::uint64_t> kv;
    /// Put commands folded per key — the version a get() reports.
    std::unordered_map<std::uint64_t, std::uint64_t> versions;
  };

  void foldShard(std::size_t s);

  ShardedService* service_;
  std::vector<RouterOp> ops_;
  std::vector<FoldState> folds_;
  /// Op-log indices of puts not yet seen committed.
  std::vector<std::size_t> pending_;
  std::uint64_t refolds_ = 0;
};

}  // namespace wfd
