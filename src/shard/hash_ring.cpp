#include "shard/hash_ring.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/ensure.h"
#include "common/hash.h"

namespace wfd {

namespace {

// Domain tags keep node placements and key positions in disjoint hash
// families even when a node id happens to equal a key.
constexpr std::uint64_t kPointTag = 0x706f696e74ULL;  // "point"
constexpr std::uint64_t kKeyTag = 0x6b6579ULL;        // "key"

}  // namespace

ConsistentHashRing::ConsistentHashRing() : ConsistentHashRing(Config{}) {}

ConsistentHashRing::ConsistentHashRing(Config config)
    : config_(std::move(config)),
      keyState_(fnv1a64Words({kKeyTag, config_.seed})) {
  WFD_ENSURE_MSG(config_.virtualNodes > 0,
                 "a ring needs at least one point per node");
}

void ConsistentHashRing::addNode(std::uint32_t node) {
  WFD_ENSURE_MSG(!contains(node), "node is already on the ring");
  const auto old = static_cast<std::ptrdiff_t>(points_.size());
  for (std::size_t v = 0; v < config_.virtualNodes; ++v) {
    // splitmix64 finalizer on top of the FNV fold: raw FNV-1a of short
    // word streams leaves enough low-bit correlation across consecutive
    // v that 64 points per node miss the 1.3 max/mean balance bound.
    const std::uint64_t pos =
        splitmix64(fnv1a64Words({kPointTag, config_.seed, node, v}));
    points_.emplace_back(pos, node);
  }
  // The ring's points are already sorted: sort the new ones and merge,
  // which costs O(P) where a full sort would cost O(P log P).
  std::sort(points_.begin() + old, points_.end());
  std::inplace_merge(points_.begin(), points_.begin() + old, points_.end());
  nodes_.insert(std::lower_bound(nodes_.begin(), nodes_.end(), node), node);
  rebuildIndex();
}

bool ConsistentHashRing::removeNode(std::uint32_t node) {
  if (!contains(node)) return false;
  WFD_ENSURE_MSG(nodes_.size() > 1, "cannot remove the last ring node");
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [node](const Point& p) {
                                 return p.second == node;
                               }),
                points_.end());
  nodes_.erase(std::lower_bound(nodes_.begin(), nodes_.end(), node));
  rebuildIndex();
  return true;
}

void ConsistentHashRing::rebuildIndex() {
  // 2^floor(log2 P) buckets: one to two points per bucket on average.
  const auto bits = static_cast<unsigned>(std::bit_width(points_.size()) - 1);
  bucketShift_ = 64 - bits;
  // The points are sorted, so bucket b's first point is preceded by
  // exactly the points of buckets 0..b-1: count the points per bucket,
  // then take prefix sums. No branch depends on a position.
  buckets_.assign(std::size_t{1} << bits, 0);
  if (bits > 0) {
    for (const Point& p : points_) ++buckets_[p.first >> bucketShift_];
  }
  std::exclusive_scan(buckets_.begin(), buckets_.end(), buckets_.begin(), std::size_t{0});
}

std::size_t ConsistentHashRing::firstPointAfter(std::uint64_t pos) const {
  // Every point before buckets_[b] lies below the start of pos's bucket,
  // hence at or below pos, so the scan starts there.
  std::size_t i = bucketShift_ == 64 ? 0 : buckets_[pos >> bucketShift_];
  while (i < points_.size() && points_[i].first <= pos) ++i;
  return i;
}

bool ConsistentHashRing::contains(std::uint32_t node) const {
  return std::binary_search(nodes_.begin(), nodes_.end(), node);
}

std::uint64_t ConsistentHashRing::keyPosition(std::uint64_t key) const {
  // fnv1a64Words({kKeyTag, seed, key}), resumed after its constant prefix.
  return splitmix64(fnv1a64Word(keyState_, key));
}

std::uint32_t ConsistentHashRing::ownerOf(std::uint64_t key) const {
  WFD_ENSURE_MSG(!points_.empty(), "ownerOf on an empty ring");
  // First point with position > pos ("clockwise of"), wrapping to the
  // lowest point past the top of the ring.
  const std::size_t i = firstPointAfter(keyPosition(key));
  return points_[i == points_.size() ? 0 : i].second;
}

std::vector<std::uint32_t> ConsistentHashRing::ownersOf(
    std::uint64_t key, std::size_t count) const {
  WFD_ENSURE_MSG(!points_.empty(), "ownersOf on an empty ring");
  std::vector<std::uint32_t> owners;
  const std::size_t want = std::min(count, nodes_.size());
  if (want == 0) return owners;
  auto it = points_.begin() +
            static_cast<std::ptrdiff_t>(firstPointAfter(keyPosition(key)));
  // Walk clockwise collecting distinct nodes; one full lap visits every
  // node, so the loop is bounded by pointCount().
  for (std::size_t seen = 0; seen < points_.size() && owners.size() < want;
       ++seen, ++it) {
    if (it == points_.end()) it = points_.begin();
    const std::uint32_t node = it->second;
    if (std::find(owners.begin(), owners.end(), node) == owners.end()) {
      owners.push_back(node);
    }
  }
  return owners;
}

}  // namespace wfd
