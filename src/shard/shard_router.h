// Client-side router of the sharded KV service: hashes each op to its
// owning shard (shard/hash_ring.h via the service) and serves reads
// from a FOLD of the shard's §7 committed prefix.
//
// Write path: put(key, v) routes the command to the owner shard's read
// replica and keeps the MsgId Client::put returns as pending. Read path:
// a get(key) folds the owner shard only; poll() folds every shard. A fold
// reads the committed prefix of the read replica's §7 ordering layer
// (ShardedService::orderingOf, resolved once per read-replica change),
// decodes the NEW suffix of put commands (its findMessage) into a
// per-shard key → (value, version) map, and resolves each pending put
// whose id it sees commit — so a retried write is credited to the attempt
// that committed. A put on another shard therefore stays pending until the
// next poll() or a get of a key that shard owns; callers poll at the
// service tick of their gets, so commit times do not depend on which call
// saw the commit first.
//
// A committed prefix can only extend under the §7 proviso, so the fold
// is incremental. A prefix that is a strict prefix of the fold is a
// read replica that lags (a crash moved reads to a follower that has not
// learned the latest commits yet): the fold is kept and served until
// the replica catches up. Outside the proviso, commit-eTOB's strength
// join (two leaders committing conflicting prefixes) can replace a
// committed prefix; when neither sequence is a prefix of the other the
// router refolds from scratch, counted in refolds(). Reads therefore
// return only COMMITTED state — the read-your-writes guarantee the
// sharded_kv checker verifies is "my write is visible once the router
// saw it commit", per shard, the strongest a client can ask of an
// eventually consistent store without blocking.
//
// A fold costs O(1) plus the new suffix while nothing can have been
// rewritten. commit-eTOB changes its committed prefix only by extending
// it or, after counting a conflict, by a strength join. So when the fold
// equalled the same replica's prefix last time (in sync) and that
// replica's commitConflicts() has not moved since, the prefix has only
// grown, and the fold skips the compare. A read-replica switch, a
// lagging replica or a moved conflict count falls back to the full
// compare above, refolds() included.
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

/// One routed client operation, as the checker sees it. The five 64-bit
/// fields come first and the shard index is 32 bits (the ring names
/// shards by std::uint32_t), so the three one-byte fields pack into the
/// tail: 48 bytes an op. The op log holds one per routed put and get, so
/// on a read-heavy run it is the router's largest block.
struct RouterOp {
  enum class Kind : std::uint8_t { kPut, kGet };

  std::uint64_t key = 0;
  /// kPut: the written value. kGet: the observed value (valid when
  /// hasValue).
  std::uint64_t value = 0;
  /// Service clock when the op was issued.
  Time time = 0;
  /// kPut: service time at which a later poll() saw this write in the
  /// shard's committed prefix (valid when committed).
  Time commitTime = 0;
  /// kGet: number of put commands the fold had applied to this key on
  /// this shard when the read was served (0 = key unseen). Per
  /// (key, shard) this is non-decreasing across the log — the monotone
  /// clause of the checker.
  std::uint64_t version = 0;
  /// Shard the op was routed to (ring owner at issue time).
  std::uint32_t shard = 0;
  Kind kind = Kind::kPut;
  bool hasValue = false;
  /// kPut: a poll() has seen this write committed, at commitTime.
  bool committed = false;
};
static_assert(sizeof(RouterOp) == 48, "RouterOp packs into 48 bytes");

class ShardRouter {
 public:
  /// The router borrows the service; one service can carry any number
  /// of routers (the ring is deterministic, so they agree on owners).
  explicit ShardRouter(ShardedService& service);

  /// Routes a put to the owner shard's read replica (scheduled at that
  /// shard's now() + 1). Returns the op-log index.
  std::size_t put(std::uint64_t key, std::uint64_t value);

  /// Folds the owner shard's newly committed commands (resolving the
  /// pending writes among them), then serves a read of `key` from that
  /// fold. Other shards are left to poll(). nullopt while no committed
  /// put for the key has been observed on that shard.
  std::optional<std::uint64_t> get(std::uint64_t key);

  /// Folds every shard's newly committed commands and resolves pending
  /// writes. Call it at every service tick that should resolve commit
  /// times, gets or not: a get resolves only its owner shard's puts.
  void poll();

  const std::vector<RouterOp>& ops() const { return ops_; }
  /// Full refolds forced by a committed-prefix rewrite (neither the
  /// fold nor the read replica's prefix extends the other) — a
  /// conflicting commit resolved by commit-eTOB's strength join,
  /// possible only outside the §7 proviso. A read replica that lags the
  /// fold is not a rewrite: the fold is kept.
  std::uint64_t refolds() const { return refolds_; }
  /// Put ops still unresolved (never observed committed).
  std::size_t pendingPuts() const;

 private:
  struct FoldState {
    struct Entry {
      std::uint64_t value = 0;
      /// Put commands folded for the key — the version a get() reports.
      std::uint64_t version = 0;
    };
    /// The committed ids already folded (prefix-compare detects
    /// rewrites).
    std::vector<MsgId> folded;
    std::unordered_map<std::uint64_t, Entry> kv;
    /// MsgId → op-log index of each put routed here and not yet seen
    /// committed (ids are unique per cluster only, hence per shard).
    std::unordered_map<MsgId, std::size_t> pending;
    /// The read replica the last fold read, and its ordering layer.
    ProcessId replica = kNoProcess;
    const CommitEtobAutomaton* ordering = nullptr;
    /// True when the last fold left `folded` equal to `ordering`'s
    /// committed prefix, whose commitConflicts() was then `conflicts`.
    bool inSync = false;
    std::uint64_t conflicts = 0;
  };

  void foldShard(std::size_t s);

  ShardedService* service_;
  std::vector<RouterOp> ops_;
  std::vector<FoldState> folds_;
  std::uint64_t refolds_ = 0;
};

}  // namespace wfd
