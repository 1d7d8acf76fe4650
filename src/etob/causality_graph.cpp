#include "etob/causality_graph.h"

#include <algorithm>

#include "common/ensure.h"

namespace wfd {

/// The change log behind CausalityGraph::Snapshot. changes[k] is the k-th
/// effective change its writer applied: node `id` (inserted if absent),
/// the edges it gained from preds[predBegin, predEnd) in insertion order —
/// so a replay inserts missing preds as placeholders in the writer's
/// order — and the body, if that change learned it.
struct CgChange {
  MsgId id = 0;
  std::uint32_t predBegin = 0;
  std::uint32_t predEnd = 0;
  std::shared_ptr<const AppMsg> body;
};
struct CgLog {
  std::vector<CgChange> changes;
  std::vector<MsgId> preds;
  /// Id -> index of the change that inserted it into the writer's graph:
  /// a snapshot of length k holds exactly the ids mapped below k.
  std::unordered_map<MsgId, std::uint32_t> firstPos;
};

bool CausalityGraph::Snapshot::mentions(MsgId id) const {
  if (!log) return false;
  const auto it = log->firstPos.find(id);
  return it != log->firstPos.end() && it->second < length;
}

CausalityGraph::Snapshot CausalityGraph::snapshot() const {
  WFD_ENSURE_MSG(!unlogged_, "a graph merged by unionWith has no usable log");
  return Snapshot{log_, logLen_};
}

void CausalityGraph::addMessage(const AppMsg& m, const std::vector<MsgId>& deps) {
  if (contains(m.id)) return;
  const std::size_t nodesBefore = graph_.nodeCount();
  graph_.addNode(m.id);

  const std::vector<MsgId>* sources = &deps;
  if (mode_ == CgEdgeMode::kFrontier) {
    // Frontier mode: keep only causally-maximal dependencies. A dep that
    // reaches another dep is implied transitively.
    collapseDominated(deps, sourcesScratch_);
    sources = &sourcesScratch_;
  }
  gainedScratch_.clear();
  for (MsgId d : *sources) {
    if (d == m.id) continue;
    // Unknown dependencies become placeholder nodes: the edge constrains
    // ordering; the content arrives later via update/union.
    if (graph_.addEdge(d, m.id)) gainedScratch_.push_back(d);
  }
  syncNodeArrays();
  const std::uint32_t mi = *graph_.indexOf(m.id);
  learnBody(mi, std::make_shared<const AppMsg>(m));
  logChange(m.id, nodesBefore, gainedScratch_, bodies_[mi]);
  refreshNode(mi);
}

void CausalityGraph::mergeSnapshot(const Snapshot& snap) {
  // This graph holds its own log's first logLen_ changes, and every
  // other log's changes up to its watermark there.
  std::size_t from = 0;
  if (snap.log == log_) {
    from = logLen_;
  } else if (const auto it = watermarks_.find(snap.log.get());
             it != watermarks_.end()) {
    from = it->second.length;
  }
  if (snap.length <= from) return;  // stale, or this graph's own past
  replayedEntries_ += snap.length - from;
  for (std::size_t k = from; k < snap.length; ++k) applyChange(*snap.log, k);
  // logLen_ tracks this graph's own log; replaying it past logLen_ (a
  // copy appended there) forked it at the first change logged here.
  if (snap.log != log_) {
    watermarks_[snap.log.get()] = Watermark{snap.log, snap.length};
  }
}

void CausalityGraph::applyChange(const CgLog& log, std::size_t k) {
  const CgChange& c = log.changes[k];
  const std::size_t nodesBefore = graph_.nodeCount();
  graph_.addNode(c.id);
  gainedScratch_.clear();
  for (std::uint32_t e = c.predBegin; e < c.predEnd; ++e) {
    if (graph_.addEdge(log.preds[e], c.id)) gainedScratch_.push_back(log.preds[e]);
  }
  syncNodeArrays();
  const std::uint32_t i = *graph_.indexOf(c.id);
  const bool learned = c.body != nullptr && bodies_[i] == nullptr;
  if (learned) learnBody(i, c.body);
  if (graph_.nodeCount() == nodesBefore && gainedScratch_.empty() && !learned) {
    return;  // nothing new here: nothing to log or refresh
  }
  // Full-paper in-edges are exactly C(m) \ {m}, installed at once, so
  // any two graphs agree on every nonempty pred set: edges can only land
  // on a node that had none (a placeholder or a rebase-added message).
  WFD_DCHECK(mode_ != CgEdgeMode::kFullPaper || gainedScratch_.empty() ||
             graph_.predIndices(i).size() == gainedScratch_.size());
  logChange(c.id, nodesBefore, gainedScratch_, learned ? c.body : nullptr);
  if (!emitted_[i]) refreshNode(i);
}

void CausalityGraph::logChange(MsgId id, std::size_t nodesBefore,
                               const std::vector<MsgId>& gained,
                               const std::shared_ptr<const AppMsg>& body) {
  if (!log_) {
    log_ = std::make_shared<CgLog>();
  } else if (log_->changes.size() != logLen_) {
    forkLog();
  }
  CgLog& log = *log_;
  const auto pos = static_cast<std::uint32_t>(log.changes.size());
  CgChange c;
  c.id = id;
  c.predBegin = static_cast<std::uint32_t>(log.preds.size());
  log.preds.insert(log.preds.end(), gained.begin(), gained.end());
  c.predEnd = static_cast<std::uint32_t>(log.preds.size());
  c.body = body;
  log.changes.push_back(std::move(c));
  for (std::size_t j = nodesBefore; j < graph_.nodeCount(); ++j) {
    log.firstPos.emplace(graph_.nodeAt(static_cast<std::uint32_t>(j)), pos);
  }
  logLen_ = log.changes.size();
}

void CausalityGraph::forkLog() {
  const CgLog& shared = *log_;
  auto fork = std::make_shared<CgLog>();
  fork->changes.assign(shared.changes.begin(),
                       shared.changes.begin() + static_cast<std::ptrdiff_t>(logLen_));
  const std::uint32_t predEnd = logLen_ == 0 ? 0 : fork->changes.back().predEnd;
  fork->preds.assign(shared.preds.begin(), shared.preds.begin() + predEnd);
  for (const auto& [id, pos] : shared.firstPos) {
    if (pos < logLen_) fork->firstPos.emplace(id, pos);
  }
  // This graph still holds the shared log's prefix: later snapshots of it
  // (from the copy that appended there) replay from logLen_.
  watermarks_[log_.get()] = Watermark{log_, logLen_};
  log_ = std::move(fork);
}

void CausalityGraph::learnBody(std::uint32_t i, std::shared_ptr<const AppMsg> body) {
  bodyWeight_ += 2 + body->body.size() + body->causalDeps.size();
  bodies_[i] = std::move(body);
}

void CausalityGraph::unionWith(const CausalityGraph& other) {
  std::vector<std::uint32_t> map;
  graph_.unionWith(other.graph_, map);
  syncNodeArrays();
  // Only the other graph's nodes can have gained bodies or in-edges;
  // revisit exactly those.
  for (std::size_t j = 0; j < map.size(); ++j) {
    const std::uint32_t i = map[j];
    if (other.bodies_[j] != nullptr && bodies_[i] == nullptr) {
      learnBody(i, other.bodies_[j]);
    }
    if (!emitted_[i]) refreshNode(i);
  }
  unlogged_ = true;
}

const AppMsg& CausalityGraph::message(MsgId id) const {
  const auto idx = graph_.indexOf(id);
  WFD_ENSURE_MSG(idx.has_value() && bodies_[*idx] != nullptr,
                 "unknown message in causality graph");
  return *bodies_[*idx];
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
    bool ready = bodies_[idx] != nullptr;
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
      if (emitted_[i] || unmetPreds_[i] != 0 || bodies_[i] == nullptr) {
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
  if (unmet == 0 && bodies_[i] != nullptr && !emitted_[i]) pushReady(i);
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
    if (--unmetPreds_[s] == 0 && bodies_[s] != nullptr) pushReady(s);
  }
}

void CausalityGraph::emitBatch() {
  const auto order =
      graph_.topoSortIndices([](MsgId a, MsgId b) { return a < b; });
  WFD_ENSURE_MSG(order.has_value(), "causality graph must be acyclic");
  for (const std::uint32_t idx : *order) {
    if (emitted_[idx] || bodies_[idx] == nullptr || unmetPreds_[idx] != 0) continue;
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
