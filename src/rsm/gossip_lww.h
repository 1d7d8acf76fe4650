// Naive eventually consistent store: anti-entropy gossip with
// last-writer-wins conflict resolution (Lamport timestamps).
//
// This is the "eventual consistency as deployed" strawman (Dynamo-style
// [7]): it converges, but it provides neither total order nor causal
// order — the E5 bench counts its causal inversions against ETOB's zero.
//
// Every λ-step broadcasts the whole table, but as one immutable shared
// object: the store copies its table at the first broadcast after a
// change and sends that same object until the next change. A receiver
// skips a table object it already merged from that sender — re-merging
// it is a no-op under LWW (entries and the clock only grow), so this
// changes no table, clock or GossipApplied output, only the work.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/types.h"
#include "sim/app_msg.h"
#include "sim/automaton.h"

namespace wfd {

/// Output event: this replica applied (or adopted via gossip) an update.
/// The per-process sequence of GossipApplied events is the store's local
/// "delivery order" compared against causal dependencies in E5.
struct GossipApplied {
  MsgId id = 0;
  std::uint64_t key = 0;
};

class GossipLwwStore final : public CloneableAutomaton<GossipLwwStore> {
 public:
  struct Entry {
    std::uint64_t value = 0;
    std::uint64_t timestamp = 0;  // Lamport clock, ties by origin
    ProcessId origin = kNoProcess;
    MsgId sourceMsg = 0;

    bool newerThan(const Entry& other) const {
      if (timestamp != other.timestamp) return timestamp > other.timestamp;
      return origin > other.origin;
    }
    bool operator==(const Entry&) const = default;
  };
  using Table = std::map<std::uint64_t, Entry>;

  /// Input: BroadcastInput whose AppMsg body is {kPut, key, value}.
  void onInput(const StepContext& ctx, const Payload& input, Effects& fx) override;
  /// Gossip merge; skips the table object last merged from `from`.
  void onMessage(const StepContext& ctx, ProcessId from, const Payload& msg,
                 Effects& fx) override;
  /// Anti-entropy: broadcast the full table every λ-step (the same
  /// shared object until the table changes).
  void onTimeout(const StepContext& ctx, Effects& fx) override;

  const Table& table() const { return table_; }
  bool sameTable(const GossipLwwStore& other) const { return table_ == other.table_; }
  /// Distinct updates this replica has applied (locally or via gossip).
  std::uint64_t appliedCount() const { return seen_.size(); }

 private:
  void adopt(std::uint64_t key, const Entry& entry, Effects& fx);

  Table table_;
  /// The GossipStateMsg every λ-step since table_'s last change
  /// broadcasts; empty until the first broadcast after a change.
  Payload published_;
  /// Per sender, the table object last merged from it. Holding the
  /// pointer keeps that object alive, so a new table can never reuse its
  /// address and be mistaken for it.
  std::vector<std::shared_ptr<const Table>> lastMerged_;
  std::set<MsgId> seen_;
  std::uint64_t clock_ = 0;
};

/// Gossip wire message: the sender's full table, shared (never copied)
/// by every copy of every broadcast until the sender's table changes.
struct GossipStateMsg {
  std::shared_ptr<const GossipLwwStore::Table> table;
};

}  // namespace wfd
