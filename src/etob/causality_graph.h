// The causality graph CG_i of Algorithm 5 (ET OB).
//
// Nodes are application messages; an edge (m', m) means m causally
// depends on m'. UpdateCG(m, C(m)) adds m with edges from C(m); UnionCG
// merges a peer's graph. The graph is acyclic by construction: every
// in-edge of m is created at m's broadcast, and C(m) only contains
// messages created strictly earlier in real time.
//
// Two edge modes with the same transitive closure:
//  * kFullPaper — edges from *every* element of C(m), as written in the
//    paper's UpdateCG;
//  * kFrontier — edges only from the causally-maximal elements of C(m)
//    (the graph's current sinks plus the explicit dependencies). Cheaper,
//    and provably closure-equivalent because every node reaches a sink.
//
// Layout: message bodies live in a flat vector parallel to the graph's
// insertion-index space (bodies_[i] is the content of node i, null for a
// placeholder); approxWeight is maintained incrementally. The promote
// sequence of UpdatePromote is maintained incrementally too — see
// extendPromote() below.
//
// Shared snapshots: every effective change (a node inserted, edges
// gained, a body learned) is appended to a change log, in the order it
// was applied. update(CG_i) carries snapshot(), a shared handle on the
// log's first k changes, instead of a copy of the graph; a receiver
// replays only the changes past its watermark for that log
// (mergeSnapshot), which yields exactly what the full-graph union
// yields. Bodies are shared between graphs and logs, never copied.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/digraph.h"
#include "common/types.h"
#include "sim/app_msg.h"

namespace wfd {

enum class CgEdgeMode { kFullPaper, kFrontier };

/// A causality graph's append-only change log (causality_graph.cpp).
struct CgLog;

class CausalityGraph {
 public:
  explicit CausalityGraph(CgEdgeMode mode = CgEdgeMode::kFullPaper) : mode_(mode) {}

  /// The paper's UpdateCG(m, C(m)): adds node m and edges {(m', m) |
  /// m' ∈ deps}. C(m) is supplied by the application and may reference
  /// messages whose content this process has not received yet (e.g. a
  /// client session that read m' at another replica): such dependencies
  /// become placeholder nodes — the edge is recorded, and m stays
  /// unpromotable until the placeholder's content arrives (see
  /// extendPromote). Idempotent per message id.
  void addMessage(const AppMsg& m, const std::vector<MsgId>& deps);

  /// What update(CG_i) carries: the first `length` changes of a graph's
  /// change log, shared with the graph that wrote them (and with every
  /// copy of it that has not appended since). Replaying them yields that
  /// graph as it was when the snapshot was taken.
  struct Snapshot {
    std::shared_ptr<const CgLog> log;
    std::size_t length = 0;
    /// True iff `id` is a node (placeholder or not) of the snapshotted
    /// graph. O(1).
    bool mentions(MsgId id) const;
  };

  /// This graph as a snapshot: O(1), nothing is copied. A copied graph
  /// shares its log until one side appends past the other's length; the
  /// appending side then forks a private copy of its prefix.
  Snapshot snapshot() const;

  /// The paper's UnionCG(CG_j), given CG_j as a snapshot. Replays only
  /// the changes past this graph's watermark for the snapshot's log (a
  /// stale snapshot, or this graph's own past one, is a no-op) and
  /// appends to this graph's log only what changed here. The result —
  /// node insertion order, edges, bodies and the promote engine's state —
  /// equals unionWith of the sender's graph at send time.
  void mergeSnapshot(const Snapshot& snap);

  /// Full-graph UnionCG: merges every node, edge and body of `other`.
  /// No production path calls it; it is the differential-test oracle that
  /// mergeSnapshot must reproduce (tests/test_cg_snapshots.cpp). It
  /// bypasses the change log, so a graph merged this way can no longer
  /// be snapshotted.
  void unionWith(const CausalityGraph& other);

  /// Log changes replayed by mergeSnapshot over this graph's lifetime
  /// (copies included): the merge's whole cost is linear in it.
  std::uint64_t replayedEntries() const { return replayedEntries_; }

  /// True iff the full content of the message is known (placeholder
  /// dependency nodes return false).
  bool contains(MsgId id) const {
    const auto idx = graph_.indexOf(id);
    return idx.has_value() && bodies_[*idx] != nullptr;
  }
  std::size_t messageCount() const { return graph_.nodeCount(); }
  std::size_t edgeCount() const { return graph_.edgeCount(); }

  /// Message metadata (must be present).
  const AppMsg& message(MsgId id) const;

  /// All message ids, in insertion order.
  const std::vector<MsgId>& ids() const { return graph_.nodes(); }

  /// Direct causal predecessors of a message (its in-edges), in
  /// insertion order.
  std::vector<MsgId> predecessors(MsgId id) const { return graph_.predecessors(id); }

  /// True iff `ancestor` causally precedes `descendant` in this graph.
  bool causallyPrecedes(MsgId ancestor, MsgId descendant) const {
    return graph_.reaches(ancestor, descendant);
  }

  /// Causally maximal messages (no outgoing edge).
  std::vector<MsgId> frontier() const { return graph_.sinks(); }

  /// Abstract serialized size in words (nodes + edges + message bodies) —
  /// what a full-graph update message costs on the wire. Maintained
  /// incrementally; O(1).
  std::size_t approxWeight() const {
    return 1 + graph_.nodeCount() + graph_.edgeCount() + bodyWeight_;
  }

  /// Deterministic topological order of all messages (ties by MsgId).
  /// The graph is acyclic by construction, so this always succeeds.
  std::vector<MsgId> topologicalOrder() const;

  /// The paper's UpdatePromote, batch form: returns an extension of
  /// `promote` that contains every PROMOTABLE message of this graph
  /// exactly once and respects every edge. A message is promotable when
  /// its content and the content of its whole causal ancestry are known —
  /// a placeholder dependency blocks its descendants (causal buffering),
  /// never the rest of the graph. `promote` must itself respect the
  /// graph's edges (invariant maintained by Algorithm 5; violations
  /// throw). This is the reference implementation (full topo walk); the
  /// automata drive the incremental engine below, which produces
  /// identical sequences (differentially tested).
  std::vector<MsgId> extendPromote(const std::vector<MsgId>& promote) const;

  // -- Incremental promote engine ----------------------------------------
  // addMessage/mergeSnapshot maintain per-node unmet-predecessor counts and a
  // ready frontier (nodes whose content and whole ancestry are known but
  // which are not yet in the maintained sequence). extendPromote() drains
  // that frontier in O(newly promotable + touched edges): when exactly one
  // node is ready at a time it is appended directly (the unique next
  // element of the canonical batch order); only when several become ready
  // in the same event does it fall back to the full topo walk. The
  // maintained sequence therefore equals replaying the batch
  // extendPromote after every event, without the per-update full toposort.

  /// Extends the maintained promote sequence with everything that became
  /// promotable since the last call. Returns the maintained sequence.
  const std::vector<MsgId>& extendPromote();

  /// The maintained promote sequence (what successive extendPromote()
  /// calls have produced).
  const std::vector<MsgId>& promoteSequence() const { return promoteSeq_; }

  /// Rebase: replaces the maintained sequence with `base` (which must be
  /// duplicate-free and respect the graph's edges — the committed prefix
  /// of the §7 extension) and extends it with everything promotable.
  /// Equivalent to the batch extendPromote(base).
  const std::vector<MsgId>& resetPromote(const std::vector<MsgId>& base);

  CgEdgeMode mode() const { return mode_; }

 private:
  /// Where this graph stands in another graph's log: it holds that log's
  /// first `length` changes. The shared_ptr keeps the log alive, so its
  /// address (the watermark key) cannot be reused by a different log.
  struct Watermark {
    std::shared_ptr<const CgLog> log;
    std::size_t length = 0;
  };

  /// Applies one change of another graph's log and logs what changed.
  void applyChange(const CgLog& log, std::size_t k);
  /// Appends the change just applied to node `id`: the nodes inserted
  /// since `nodesBefore`, the edges in `gained` (insertion order), and
  /// `body` if it was learned (null otherwise).
  void logChange(MsgId id, std::size_t nodesBefore,
                 const std::vector<MsgId>& gained,
                 const std::shared_ptr<const AppMsg>& body);
  /// Another copy appended to the shared log past logLen_: continue on a
  /// private copy of this graph's prefix.
  void forkLog();
  void learnBody(std::uint32_t i, std::shared_ptr<const AppMsg> body);
  /// Grows the per-node parallel arrays to the graph's node count.
  void syncNodeArrays();
  /// Recomputes unmetPreds_ for node i and queues it if it became ready.
  void refreshNode(std::uint32_t i);
  void pushReady(std::uint32_t i);
  /// Appends node i to the maintained sequence and releases its
  /// successors (decrementing unmet counts, queueing newly ready nodes).
  void emitNode(std::uint32_t i);
  /// Fallback: full topo walk appending every promotable node (exact
  /// batch order).
  void emitBatch();
  /// kFrontier dominance collapse: drops every dep that reaches another
  /// dep (it is implied transitively). One multi-source backward flood
  /// instead of the former O(deps²) pairwise reaches() scan.
  void collapseDominated(const std::vector<MsgId>& deps,
                         std::vector<MsgId>& out);
  /// Debug cross-check: the flood result must match the pairwise scan.
  bool noDominatedSource(const std::vector<MsgId>& deps,
                         const std::vector<MsgId>& sources) const;

  CgEdgeMode mode_;
  Digraph<MsgId> graph_;
  /// Content per node index; null for placeholder nodes. Shared with the
  /// change logs that carry it and with every graph that learned it.
  std::vector<std::shared_ptr<const AppMsg>> bodies_;
  /// Σ over known bodies of (2 + |body| + |causalDeps|): the body part of
  /// approxWeight, maintained on every body learn.
  std::size_t bodyWeight_ = 0;

  // Change log (allocated at the first change) and merge watermarks.
  std::shared_ptr<CgLog> log_;
  /// This graph's changes are log_'s first logLen_ entries (a copy may
  /// have appended more).
  std::size_t logLen_ = 0;
  std::unordered_map<const CgLog*, Watermark> watermarks_;
  std::uint64_t replayedEntries_ = 0;
  /// Set by unionWith, which bypasses the log.
  bool unlogged_ = false;

  // Incremental promote state (all parallel to the graph's index space).
  std::vector<MsgId> promoteSeq_;
  std::vector<char> emitted_;
  std::vector<std::uint32_t> unmetPreds_;
  std::vector<std::uint32_t> ready_;
  std::vector<char> readyFlag_;

  // Reused scratch (dominance flood + logged edges); the flood is
  // stamp-versioned so clears are O(touched) not O(nodes).
  std::vector<std::uint32_t> visitStamp_;
  std::uint32_t visitEpoch_ = 0;
  std::vector<std::uint32_t> floodStack_;
  std::vector<MsgId> sourcesScratch_;
  std::vector<MsgId> gainedScratch_;
};

}  // namespace wfd
