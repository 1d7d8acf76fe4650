#include "etob/causality_graph.h"

#include <algorithm>

#include "common/ensure.h"

namespace wfd {

void CausalityGraph::addMessage(const AppMsg& m, const std::vector<MsgId>& deps) {
  if (contains(m.id)) return;
  graph_.addNode(m.id);

  const std::vector<MsgId>* sources = &deps;
  if (mode_ == CgEdgeMode::kFrontier) {
    // Frontier mode: keep only causally-maximal dependencies. A dep that
    // reaches another dep is implied transitively.
    collapseDominated(deps, sourcesScratch_);
    sources = &sourcesScratch_;
  }
  for (MsgId d : *sources) {
    if (d == m.id) continue;
    // Unknown dependencies become placeholder nodes: the edge constrains
    // ordering; the content arrives later via update/union.
    graph_.addEdge(d, m.id);
  }
  syncNodeArrays();
  const std::uint32_t mi = *graph_.indexOf(m.id);
  bodies_[mi] = m;
  bodyKnown_[mi] = 1;
  bodyWeight_ += 2 + m.body.size() + m.causalDeps.size();
  refreshNode(mi);
}

void CausalityGraph::unionWith(const CausalityGraph& other) {
  // stablePredSets holds in kFullPaper mode: a message's in-edges are
  // exactly C(m) \ {m}, installed atomically by addMessage (empty until
  // then for placeholder nodes), so any two graphs agree on every
  // nonempty pred set and the union can skip settled nodes outright
  // (debug builds cross-check the set equality). kFrontier re-collapses
  // deps against each receiver's local graph, so different processes can
  // hold different — closure-equivalent — pred sets for the same node;
  // that mode keeps the general merging union.
  graph_.unionWith(other.graph_, unionMapScratch_,
                   /*stablePredSets=*/mode_ == CgEdgeMode::kFullPaper);
  syncNodeArrays();
  // Only the other graph's nodes can have gained bodies or in-edges;
  // revisit exactly those.
  for (std::size_t j = 0; j < unionMapScratch_.size(); ++j) {
    const std::uint32_t i = unionMapScratch_[j];
    if (other.bodyKnown_[j] && !bodyKnown_[i]) {
      bodies_[i] = other.bodies_[j];
      bodyKnown_[i] = 1;
      bodyWeight_ += 2 + bodies_[i].body.size() + bodies_[i].causalDeps.size();
    }
    if (!emitted_[i]) refreshNode(i);
  }
}

const AppMsg& CausalityGraph::message(MsgId id) const {
  const auto idx = graph_.indexOf(id);
  WFD_ENSURE_MSG(idx.has_value() && bodyKnown_[*idx] != 0,
                 "unknown message in causality graph");
  return bodies_[*idx];
}

std::vector<MsgId> CausalityGraph::topologicalOrder() const {
  auto order = graph_.topoSort([](MsgId a, MsgId b) { return a < b; });
  WFD_ENSURE_MSG(order.has_value(), "causality graph must be acyclic");
  return *order;
}

std::vector<MsgId> CausalityGraph::extendPromote(
    const std::vector<MsgId>& promote) const {
  // Reference (batch) form: emitted-ness is a flat flag array indexed by
  // insertion index, and predecessor checks read the graph's flat
  // adjacency directly instead of materializing value vectors.
  std::vector<char> emitted(graph_.nodeCount(), 0);
  bool anyForeign = false;
  for (MsgId id : promote) {
    if (const auto idx = graph_.indexOf(id)) {
      WFD_ENSURE_MSG(!emitted[*idx], "promote sequence contains duplicates");
      emitted[*idx] = 1;
    } else {
      anyForeign = true;
    }
  }
  if (anyForeign) {
    // Ids this graph has never seen can't collide with the flag array;
    // validate uniqueness of the whole sequence the general way.
    std::vector<MsgId> sorted = promote;
    std::sort(sorted.begin(), sorted.end());
    WFD_ENSURE_MSG(
        std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
        "promote sequence contains duplicates");
  }
  std::vector<MsgId> out = promote;
  // Walk the full topological order; a message is appended only when its
  // content is known AND all its predecessors were emitted. A blocked
  // message blocks its causal descendants (their predecessor flags stay
  // unset) but nothing else.
  const auto order =
      graph_.topoSortIndices([](MsgId a, MsgId b) { return a < b; });
  WFD_ENSURE_MSG(order.has_value(), "causality graph must be acyclic");
  for (std::uint32_t idx : *order) {
    if (emitted[idx]) continue;
    bool ready = bodyKnown_[idx] != 0;
    if (ready) {
      for (std::uint32_t pred : graph_.predIndices(idx)) {
        if (!emitted[pred]) {
          ready = false;
          break;
        }
      }
    }
    if (ready) {
      out.push_back(graph_.nodeAt(idx));
      emitted[idx] = 1;
    }
  }
  // Post-condition: out respects every edge of the graph. The prefix does
  // by the algorithm's invariant; appended messages were emitted only
  // after all their predecessors, and no edge can point from an appended
  // message to a prefix message (all in-edges of a message exist from
  // its creation).
  return out;
}

const std::vector<MsgId>& CausalityGraph::extendPromote() {
  for (;;) {
    // Compact the ready frontier, dropping entries invalidated since they
    // were queued (an edge learned later can re-block a node).
    std::size_t valid = 0;
    for (const std::uint32_t i : ready_) {
      if (!readyFlag_[i]) continue;  // emitted meanwhile
      if (emitted_[i] || unmetPreds_[i] != 0 || !bodyKnown_[i]) {
        readyFlag_[i] = 0;  // refreshNode re-queues it if it recovers
        continue;
      }
      ready_[valid++] = i;
    }
    ready_.resize(valid);
    if (ready_.empty()) return promoteSeq_;
    if (ready_.size() == 1) {
      // Exactly one node is promotable: it is necessarily the next
      // element of the canonical batch order (the first promotable node
      // in topological order has no unemitted promotable ancestor, and
      // here there is only one candidate), so append it directly and
      // cascade into whatever its emission released.
      const std::uint32_t i = ready_[0];
      ready_.clear();
      emitNode(i);
      continue;
    }
    // Several nodes became promotable in one event (e.g. a union healing
    // a partition): fall back to the full walk for the canonical order.
    emitBatch();
    ready_.clear();
    return promoteSeq_;
  }
}

const std::vector<MsgId>& CausalityGraph::resetPromote(
    const std::vector<MsgId>& base) {
  syncNodeArrays();
  std::fill(emitted_.begin(), emitted_.end(), 0);
  std::fill(readyFlag_.begin(), readyFlag_.end(), 0);
  ready_.clear();
  bool anyForeign = false;
  for (MsgId id : base) {
    if (const auto idx = graph_.indexOf(id)) {
      WFD_ENSURE_MSG(!emitted_[*idx], "promote sequence contains duplicates");
      emitted_[*idx] = 1;
    } else {
      anyForeign = true;
    }
  }
  if (anyForeign) {
    std::vector<MsgId> sorted = base;
    std::sort(sorted.begin(), sorted.end());
    WFD_ENSURE_MSG(
        std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
        "promote sequence contains duplicates");
  }
  promoteSeq_ = base;
  for (std::uint32_t i = 0; i < graph_.nodeCount(); ++i) {
    if (emitted_[i]) {
      unmetPreds_[i] = 0;
      continue;
    }
    refreshNode(i);
  }
  return extendPromote();
}

void CausalityGraph::syncNodeArrays() {
  const std::size_t n = graph_.nodeCount();
  if (bodies_.size() == n) return;
  bodies_.resize(n);
  bodyKnown_.resize(n, 0);
  emitted_.resize(n, 0);
  unmetPreds_.resize(n, 0);
  readyFlag_.resize(n, 0);
}

void CausalityGraph::refreshNode(std::uint32_t i) {
  std::uint32_t unmet = 0;
  for (const std::uint32_t p : graph_.predIndices(i)) {
    if (!emitted_[p]) ++unmet;
  }
  unmetPreds_[i] = unmet;
  if (unmet == 0 && bodyKnown_[i] && !emitted_[i]) pushReady(i);
}

void CausalityGraph::pushReady(std::uint32_t i) {
  if (readyFlag_[i]) return;
  readyFlag_[i] = 1;
  ready_.push_back(i);
}

void CausalityGraph::emitNode(std::uint32_t i) {
  promoteSeq_.push_back(graph_.nodeAt(i));
  emitted_[i] = 1;
  readyFlag_[i] = 0;
  for (const std::uint32_t s : graph_.succIndices(i)) {
    if (emitted_[s]) continue;
    WFD_DCHECK(unmetPreds_[s] > 0);
    if (--unmetPreds_[s] == 0 && bodyKnown_[s]) pushReady(s);
  }
}

void CausalityGraph::emitBatch() {
  const auto order =
      graph_.topoSortIndices([](MsgId a, MsgId b) { return a < b; });
  WFD_ENSURE_MSG(order.has_value(), "causality graph must be acyclic");
  for (const std::uint32_t idx : *order) {
    if (emitted_[idx] || !bodyKnown_[idx] || unmetPreds_[idx] != 0) continue;
    emitNode(idx);
  }
}

void CausalityGraph::collapseDominated(const std::vector<MsgId>& deps,
                                       std::vector<MsgId>& out) {
  out.clear();
  if (deps.size() < 2) {
    out.assign(deps.begin(), deps.end());
    return;
  }
  // One multi-source BACKWARD flood from all deps: a node stamped here is
  // a strict ancestor of some dep (acyclicity rules out self-paths), so a
  // dep that ends up stamped reaches another dep and is dominated. This
  // replaces the former O(deps²) pairwise reaches() scan — the cubic term
  // of the E8 profile once frontier auto-causal deps inflate the dep list.
  if (visitStamp_.size() < graph_.nodeCount()) {
    visitStamp_.resize(graph_.nodeCount(), 0);
  }
  if (++visitEpoch_ == 0) {
    std::fill(visitStamp_.begin(), visitStamp_.end(), 0);
    visitEpoch_ = 1;
  }
  floodStack_.clear();
  for (MsgId d : deps) {
    if (const auto idx = graph_.indexOf(d)) floodStack_.push_back(*idx);
  }
  while (!floodStack_.empty()) {
    const std::uint32_t cur = floodStack_.back();
    floodStack_.pop_back();
    for (const std::uint32_t nxt : graph_.predIndices(cur)) {
      if (visitStamp_[nxt] == visitEpoch_) continue;
      visitStamp_[nxt] = visitEpoch_;
      floodStack_.push_back(nxt);
    }
  }
  for (MsgId d : deps) {
    const auto idx = graph_.indexOf(d);
    const bool dominated = idx.has_value() && visitStamp_[*idx] == visitEpoch_;
    if (!dominated) out.push_back(d);
  }
  WFD_DCHECK(noDominatedSource(deps, out));
}

bool CausalityGraph::noDominatedSource(const std::vector<MsgId>& deps,
                                       const std::vector<MsgId>& sources) const {
  // Debug-only mirror of the pre-flood pairwise dominance scan; the flood
  // must select exactly the deps the scan would have kept.
  std::vector<MsgId> expect;
  for (MsgId d : deps) {
    bool dominated = false;
    for (MsgId other : deps) {
      if (other != d && graph_.reaches(d, other)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) expect.push_back(d);
  }
  return expect == sources;
}

}  // namespace wfd
