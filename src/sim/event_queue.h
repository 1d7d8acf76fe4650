// The simulator's pending-event queue: pops events in (time, seq) order,
// where seq is the push order, so same-time events pop first in, first
// out.
//
// Two tiers. A wheel of kWheelTicks FIFO buckets holds the events due in
// [now, now + kWheelTicks), where now is the latest time popped so far;
// a two-word occupancy bitmap finds the first non-empty bucket. A binary
// min-heap over (time, seq) holds every other event: those due at or
// after now + kWheelTicks, and those due before now (the simulator
// accepts inputs scheduled in the past). popDue() takes whichever tier's
// head is smaller by (time, seq) — a bucketed queue in the manner of
// R. Brown, "Calendar Queues" (CACM 1988), reduced to integer ticks.
//
// Why the order is exactly the heap's: every push gets a larger seq, so
// each bucket is already in seq order. Pops always take the global
// minimum, so now never passes an event in the wheel, and a bucket only
// ever holds one tick (distinct ticks in [now, now + kWheelTicks) map to
// distinct buckets). An event that entered the heap before now caught up
// with it stays there; the head comparison orders it against the wheel.
//
// A bucket is a singly linked list through one node pool, so the wheel
// allocates nothing at construction and, like the heap, grows one vector
// geometrically from the first push on.
//
// popDue(limit) finds the head once and pops it only if it is due by
// `limit`: the simulator's per-event "is the next event inside maxTime"
// test and the pop are one lookup.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/ensure.h"
#include "common/types.h"

namespace wfd {

/// Node must have public `Time time` and `std::uint64_t seq` members;
/// push() assigns seq.
template <typename Node>
class EventQueue {
 public:
  static constexpr Time kWheelTicks = 128;
  static_assert(kWheelTicks == 2 * 64, "the occupancy bitmap is two words");

  bool empty() const { return wheelSize_ == 0 && heap_.empty(); }
  std::size_t size() const { return wheelSize_ + heap_.size(); }

  /// Stamps `e.seq` with the next push number and enqueues `e`.
  void push(Node e) {
    e.seq = nextSeq_++;
    if (e.time < now_ || e.time - now_ >= kWheelTicks) {
      heap_.push_back(e);
      std::push_heap(heap_.begin(), heap_.end(), after);
      return;
    }
    std::uint32_t i = freeHead_;
    if (i != kNil) {
      freeHead_ = pool_[i].next;
      pool_[i] = Linked{e, kNil};
    } else {
      WFD_ENSURE_MSG(pool_.size() < kNil, "event pool exhausted");
      i = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(Linked{e, kNil});
    }
    const std::size_t b = e.time % kWheelTicks;
    Bucket& bucket = wheel_[b];
    if (bucket.tail == kNil) {
      bucket.head = i;
      occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
    } else {
      pool_[bucket.tail].next = i;
    }
    bucket.tail = i;
    ++wheelSize_;
  }

  /// The earliest pending event by (time, seq). Requires !empty().
  const Node& top() const {
    std::size_t b = 0;
    return headInWheel(&b) ? pool_[wheel_[b].head].node : heap_.front();
  }

  /// Removes and returns top() if it is due at or before `limit`;
  /// nullopt, leaving the queue as it is, if the queue is empty or its
  /// head is due later. Finds the head once.
  std::optional<Node> popDue(Time limit) {
    if (empty()) return std::nullopt;
    std::optional<Node> e;
    std::size_t b = 0;
    if (headInWheel(&b)) {
      Bucket& bucket = wheel_[b];
      const std::uint32_t i = bucket.head;
      if (pool_[i].node.time > limit) return std::nullopt;
      e = pool_[i].node;
      bucket.head = pool_[i].next;
      if (bucket.head == kNil) {
        bucket.tail = kNil;
        occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
      }
      pool_[i].next = freeHead_;
      freeHead_ = i;
      --wheelSize_;
    } else {
      if (heap_.front().time > limit) return std::nullopt;
      e = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), after);
      heap_.pop_back();
    }
    now_ = std::max(now_, e->time);
    return e;
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// A wheel event and the pool index of the next one in its bucket (or
  /// of the next free slot).
  struct Linked {
    Node node;
    std::uint32_t next = kNil;
  };
  /// FIFO list of one tick's events in pool_.
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  static bool before(const Node& a, const Node& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  static bool after(const Node& a, const Node& b) { return before(b, a); }

  /// True iff the head of the queue is in the wheel; then `*b` is its
  /// bucket.
  bool headInWheel(std::size_t* b) const {
    if (wheelSize_ == 0) return false;
    *b = firstBucket();
    return heap_.empty() || before(pool_[wheel_[*b].head].node, heap_.front());
  }

  /// The first occupied bucket at or after now's, going round: the one
  /// due first. Requires wheelSize_ > 0.
  std::size_t firstBucket() const {
    const std::size_t start = now_ % kWheelTicks;
    const std::size_t w = start / 64;
    const std::uint64_t fromStart =
        occupied_[w] & (~std::uint64_t{0} << (start % 64));
    if (fromStart != 0) return w * 64 + std::countr_zero(fromStart);
    const std::uint64_t other = occupied_[w ^ 1];
    if (other != 0) return (w ^ 1) * 64 + std::countr_zero(other);
    return w * 64 + std::countr_zero(occupied_[w]);
  }

  std::array<Bucket, kWheelTicks> wheel_{};
  std::array<std::uint64_t, 2> occupied_{};
  std::size_t wheelSize_ = 0;
  /// Wheel events; free slots form a list from freeHead_.
  std::vector<Linked> pool_;
  std::uint32_t freeHead_ = kNil;
  /// Overflow tier: a binary min-heap over (time, seq).
  std::vector<Node> heap_;
  /// Latest time popped; no wheel event is earlier.
  Time now_ = 0;
  std::uint64_t nextSeq_ = 0;
};

}  // namespace wfd
