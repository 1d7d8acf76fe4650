// Generic small directed graph keyed by node values.
//
// Used by the ETOB causality graph (nodes = application messages) and by
// tests. Nodes are stored in insertion order, which gives every algorithm
// on top a deterministic iteration order.
//
// Representation: adjacency lists are index-sorted flat vectors (not hash
// sets). unionWith maps the other graph's indices once and then
// set-unions sorted neighbor lists, instead of paying two hash lookups
// plus a hash insert per edge. All public results are pure functions of
// the node values, insertion order, and edge set, so the representation
// is invisible to callers (pinned by the scale digest matrix).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ensure.h"

namespace wfd {

/// Directed graph over values of type T (T must be hashable and
/// equality-comparable). Parallel edges are collapsed; self-loops rejected.
template <typename T>
class Digraph {
 public:
  /// Adds a node if not present. Returns true if newly inserted.
  bool addNode(const T& node) {
    return insertNode(node) != kExisting;
  }

  /// Adds an edge from -> to (inserting missing endpoints).
  /// Returns true if the edge is new. Self-loops are invariant errors.
  bool addEdge(const T& from, const T& to) {
    WFD_ENSURE_MSG(!(from == to), "self-loop in Digraph");
    addNode(from);
    addNode(to);
    const std::uint32_t f = index_.at(from);
    const std::uint32_t t = index_.at(to);
    if (!insertSorted(succs_[f], t)) return false;
    insertSorted(preds_[t], f);
    ++edgeCount_;
    return true;
  }

  bool hasNode(const T& node) const { return index_.contains(node); }

  bool hasEdge(const T& from, const T& to) const {
    auto f = index_.find(from);
    auto t = index_.find(to);
    if (f == index_.end() || t == index_.end()) return false;
    return std::binary_search(succs_[f->second].begin(),
                              succs_[f->second].end(), t->second);
  }

  std::size_t nodeCount() const { return nodes_.size(); }
  std::size_t edgeCount() const { return edgeCount_; }

  /// Nodes in insertion order.
  const std::vector<T>& nodes() const { return nodes_; }

  /// Predecessor values of a node, in insertion order of the predecessors.
  std::vector<T> predecessors(const T& node) const {
    return neighbourValues(node, preds_);
  }

  /// Successor values of a node, in insertion order of the successors.
  std::vector<T> successors(const T& node) const {
    return neighbourValues(node, succs_);
  }

  /// Nodes with no outgoing edge (causally maximal), in insertion order.
  std::vector<T> sinks() const {
    std::vector<T> out;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (succs_[i].empty()) out.push_back(nodes_[i]);
    }
    return out;
  }

  // -- Index-space accessors ---------------------------------------------
  // The causality graph's promote machinery runs per received update;
  // these let it work with dense indices and flat flag arrays instead of
  // hashing node values on every visit.

  /// Insertion index of a node, if present.
  std::optional<std::uint32_t> indexOf(const T& node) const {
    auto it = index_.find(node);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }

  /// Node value at an insertion index (< nodeCount()).
  const T& nodeAt(std::uint32_t i) const { return nodes_[i]; }

  /// Predecessor indices of node i, sorted ascending (insertion order).
  const std::vector<std::uint32_t>& predIndices(std::uint32_t i) const {
    return preds_[i];
  }

  /// Successor indices of node i, sorted ascending (insertion order).
  const std::vector<std::uint32_t>& succIndices(std::uint32_t i) const {
    return succs_[i];
  }

  /// Merges all nodes and edges of another graph into this one.
  void unionWith(const Digraph& other) {
    std::vector<std::uint32_t> map;
    unionWith(other, map);
  }

  /// unionWith that also reports where each of the other graph's nodes
  /// landed: mapOut[j] is this graph's index of other.nodes()[j]. Only
  /// those nodes can have gained in-edges, so incremental bookkeeping
  /// layered on top revisits exactly the touched nodes instead of
  /// rescanning the whole graph.
  void unionWith(const Digraph& other, std::vector<std::uint32_t>& mapOut) {
    // Map the other graph's indices into this one (inserting missing
    // nodes) ONCE, then merge sorted neighbor lists per node.
    std::vector<std::uint32_t>& map = mapOut;
    map.assign(other.nodes_.size(), 0);
    for (std::size_t i = 0; i < other.nodes_.size(); ++i) {
      const std::uint32_t idx = insertNode(other.nodes_[i]);
      map[i] = idx == kExisting ? index_.at(other.nodes_[i]) : idx;
    }
    std::vector<std::uint32_t> translated;
    for (std::size_t f = 0; f < other.nodes_.size(); ++f) {
      if (!other.succs_[f].empty()) {
        edgeCount_ +=
            mergeTranslated(succs_[map[f]], other.succs_[f], map, translated);
      }
      if (!other.preds_[f].empty()) {
        mergeTranslated(preds_[map[f]], other.preds_[f], map, translated);
      }
    }
  }

  /// True iff `to` is reachable from `from` through one or more edges.
  bool reaches(const T& from, const T& to) const {
    auto f = index_.find(from);
    auto t = index_.find(to);
    if (f == index_.end() || t == index_.end()) return false;
    std::vector<std::uint32_t> stack{f->second};
    std::vector<char> seen(nodes_.size(), 0);
    seen[f->second] = 1;
    while (!stack.empty()) {
      const std::uint32_t cur = stack.back();
      stack.pop_back();
      for (std::uint32_t nxt : succs_[cur]) {
        if (nxt == t->second) return true;
        if (!seen[nxt]) {
          seen[nxt] = 1;
          stack.push_back(nxt);
        }
      }
    }
    return false;
  }

  /// Kahn topological sort with a caller-supplied deterministic tie-break
  /// (`less(a, b)` orders ready nodes; ties fall back to insertion
  /// order). Returns nullopt if the graph has a cycle.
  template <typename Less>
  std::optional<std::vector<T>> topoSort(Less less) const {
    const auto indices = topoSortIndices(less);
    if (!indices) return std::nullopt;
    std::vector<T> out;
    out.reserve(indices->size());
    for (std::uint32_t i : *indices) out.push_back(nodes_[i]);
    return out;
  }

  /// topoSort in index space. The ready set is a binary heap — the
  /// former linear min-scan per emitted node made every sort quadratic,
  /// which dominated the eTOB profile at n=256.
  template <typename Less>
  std::optional<std::vector<std::uint32_t>> topoSortIndices(Less less) const {
    std::vector<std::uint32_t> indegree(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      indegree[i] = static_cast<std::uint32_t>(preds_[i].size());
    }
    // Max-heap comparator inverted into a min-heap on (value, index).
    auto after = [&](std::uint32_t a, std::uint32_t b) {
      if (less(nodes_[a], nodes_[b])) return false;
      if (less(nodes_[b], nodes_[a])) return true;
      return a > b;
    };
    std::vector<std::uint32_t> ready;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (indegree[i] == 0) ready.push_back(static_cast<std::uint32_t>(i));
    }
    std::make_heap(ready.begin(), ready.end(), after);
    std::vector<std::uint32_t> out;
    out.reserve(nodes_.size());
    while (!ready.empty()) {
      std::pop_heap(ready.begin(), ready.end(), after);
      const std::uint32_t cur = ready.back();
      ready.pop_back();
      out.push_back(cur);
      for (std::uint32_t nxt : succs_[cur]) {
        if (--indegree[nxt] == 0) {
          ready.push_back(nxt);
          std::push_heap(ready.begin(), ready.end(), after);
        }
      }
    }
    if (out.size() != nodes_.size()) return std::nullopt;  // cycle
    return out;
  }

 private:
  static constexpr std::uint32_t kExisting = 0xFFFFFFFFu;

  /// Inserts a node; returns its new index, or kExisting if present.
  std::uint32_t insertNode(const T& node) {
    const auto [it, inserted] =
        index_.emplace(node, static_cast<std::uint32_t>(nodes_.size()));
    if (!inserted) return kExisting;
    WFD_ENSURE_MSG(nodes_.size() < kExisting, "Digraph node limit");
    nodes_.push_back(node);
    preds_.emplace_back();
    succs_.emplace_back();
    return it->second;
  }

  /// Sorted-unique insert; returns true if newly added. The common eTOB
  /// case appends at the back (new nodes get the largest index).
  static bool insertSorted(std::vector<std::uint32_t>& list,
                           std::uint32_t value) {
    if (list.empty() || list.back() < value) {
      list.push_back(value);
      return true;
    }
    const auto it = std::lower_bound(list.begin(), list.end(), value);
    if (it != list.end() && *it == value) return false;
    list.insert(it, value);
    return true;
  }

  /// Translates `src` through `map`, sorts, and set-unions into `dst`.
  /// Returns how many new entries were added. `scratch` is reused
  /// between calls to avoid reallocation.
  static std::size_t mergeTranslated(std::vector<std::uint32_t>& dst,
                                     const std::vector<std::uint32_t>& src,
                                     const std::vector<std::uint32_t>& map,
                                     std::vector<std::uint32_t>& scratch) {
    scratch.clear();
    scratch.reserve(src.size());
    for (std::uint32_t s : src) scratch.push_back(map[s]);
    std::sort(scratch.begin(), scratch.end());
    if (dst.empty()) {
      dst = scratch;
      return dst.size();
    }
    // Fast path: everything in scratch is already present (common once
    // peers have exchanged graphs).
    if (std::includes(dst.begin(), dst.end(), scratch.begin(),
                      scratch.end())) {
      return 0;
    }
    std::vector<std::uint32_t> merged;
    merged.reserve(dst.size() + scratch.size());
    std::set_union(dst.begin(), dst.end(), scratch.begin(), scratch.end(),
                   std::back_inserter(merged));
    const std::size_t added = merged.size() - dst.size();
    dst = std::move(merged);
    return added;
  }

  std::vector<T> neighbourValues(
      const T& node,
      const std::vector<std::vector<std::uint32_t>>& adj) const {
    std::vector<T> out;
    auto it = index_.find(node);
    if (it == index_.end()) return out;
    const auto& ids = adj[it->second];  // sorted == insertion order
    out.reserve(ids.size());
    for (std::uint32_t i : ids) out.push_back(nodes_[i]);
    return out;
  }

  std::vector<T> nodes_;
  std::unordered_map<T, std::uint32_t> index_;
  /// Sorted ascending (== insertion order of the neighbors).
  std::vector<std::vector<std::uint32_t>> preds_;
  std::vector<std::vector<std::uint32_t>> succs_;
  std::size_t edgeCount_ = 0;
};

}  // namespace wfd
