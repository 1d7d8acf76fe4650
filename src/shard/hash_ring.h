// Consistent-hash ring: the key-routing layer of the sharded KV service.
//
// Nodes (shard indices) are placed on a 64-bit ring at `virtualNodes`
// pseudo-random positions each; a key is owned by the first node placed
// clockwise of the key's hash. Both placements are FNV-1a over fixed
// word sequences salted with the ring seed, so the whole mapping is a
// pure function of (seed, node set) — deterministic across platforms,
// and the same for every client that shares the seed (routing needs no
// coordination).
//
// The two properties the unit tests pin (tests/test_hash_ring.cpp):
//  * balance — with >= 64 virtual nodes per shard, the max/mean key
//    share across shards stays below 1.3;
//  * minimal migration — adding a node to an N-node ring re-homes an
//    expected 1/(N+1) fraction of keys, and REMOVING a node re-homes
//    exactly the keys it owned (every other key keeps its owner — the
//    property the crash-rebalance path in shard/sharded_service.h
//    relies on: a dead shard's keys disperse, live shards keep theirs).
//
// A lookup is O(1) expected: beside the sorted points the ring keeps a
// bucket index, 2^floor(log2 P) buckets for P points, each holding the
// first point at or past its slice of the 64-bit ring. ownerOf scans
// forward from the key's bucket, about one point on average, and
// returns what a binary search over the points returns. addNode merges
// the new node's sorted points into the ring and removeNode filters
// them out, each in O(P), and both rebuild the index in O(P). Sizing it
// to the points keeps a one-shard service's construction from filling
// a table sized for the largest ring.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace wfd {

class ConsistentHashRing {
 public:
  struct Config {
    /// Ring points per node. More virtual nodes = better balance at
    /// O(virtualNodes * nodes) memory; 64 keeps max/mean < 1.3.
    std::size_t virtualNodes = 64;
    /// Salt for every placement and key hash. Fixed seed = fixed ring.
    std::uint64_t seed = 0;
  };

  /// Default Config (64 virtual nodes, seed 0).
  ConsistentHashRing();
  explicit ConsistentHashRing(Config config);

  /// Inserts `node` at its virtualNodes ring positions. Idempotence is a
  /// bug in the caller: re-adding a present node is rejected.
  void addNode(std::uint32_t node);

  /// Removes every point of `node`. False when the node is absent. The
  /// last node cannot be removed (an empty ring routes nothing).
  bool removeNode(std::uint32_t node);

  bool contains(std::uint32_t node) const;
  std::size_t nodeCount() const { return nodes_.size(); }
  /// Current node set, ascending.
  const std::vector<std::uint32_t>& nodes() const { return nodes_; }
  /// Total ring points (nodeCount() * virtualNodes).
  std::size_t pointCount() const { return points_.size(); }

  /// Position of `key` on the ring (FNV-1a of {key tag, seed, key},
  /// splitmix64-finalized). The FNV state after the tag and the seed is
  /// computed once, at construction, so a lookup folds only the key's
  /// eight bytes.
  std::uint64_t keyPosition(std::uint64_t key) const;

  /// Owner of `key`: the node of the first ring point clockwise of
  /// keyPosition(key), wrapping. Requires a non-empty ring.
  std::uint32_t ownerOf(std::uint64_t key) const;

  /// The first `count` DISTINCT nodes clockwise of the key — replica
  /// placement (next_k). Returns min(count, nodeCount()) nodes, owner
  /// first.
  std::vector<std::uint32_t> ownersOf(std::uint64_t key,
                                      std::size_t count) const;

 private:
  /// (position, node), sorted by position then node — the tie order
  /// makes equal-position points deterministic too.
  using Point = std::pair<std::uint64_t, std::uint32_t>;

  /// Rebuilds buckets_ and bucketShift_ over the current points_.
  void rebuildIndex();
  /// Index of the first point with position > pos; pointCount() if none.
  std::size_t firstPointAfter(std::uint64_t pos) const;

  Config config_;
  /// FNV-1a state after the key tag and config_.seed — keyPosition's
  /// constant prefix.
  std::uint64_t keyState_;
  std::vector<Point> points_;
  std::vector<std::uint32_t> nodes_;
  /// buckets_[b]: index of the first point at or past position
  /// b << bucketShift_, where bucket b begins. bucketShift_ is 64 for a
  /// one-bucket index.
  std::vector<std::size_t> buckets_;
  unsigned bucketShift_ = 64;
};

}  // namespace wfd
