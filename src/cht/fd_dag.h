// The failure-detector-sample DAG of the CHT reduction (Appendix B,
// Figure 1).
//
// Vertices are [q, d, k]: process q obtained value d from its k-th query
// of D. Each local query appends a vertex with edges from EVERY vertex
// currently known ("q saw d before q' saw d'"), and received peer DAGs
// are merged in. Correct processes' DAGs converge to the same growing
// limit DAG G, whose paths supply the stimuli for the simulation tree.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/hash.h"
#include "common/types.h"
#include "sim/fd_interface.h"

namespace wfd {

/// DAG vertex [q, d, k].
struct DagVertex {
  ProcessId q = kNoProcess;
  FdValue d;
  std::uint64_t k = 0;

  bool operator==(const DagVertex&) const = default;
  /// Canonical process-independent order: by query index, then process,
  /// then value. Used everywhere a deterministic tie-break is needed.
  auto operator<=>(const DagVertex&) const = default;
};

struct DagVertexHash {
  std::size_t operator()(const DagVertex& v) const {
    std::size_t seed = std::hash<ProcessId>{}(v.q);
    hashCombine(seed, FdValueHash{}(v.d));
    hashCombine(seed, std::hash<std::uint64_t>{}(v.k));
    return seed;
  }
};

class FdDag {
 public:
  /// Records one local failure-detector query of process p: appends
  /// [p, d, k] (k = p's query counter) with edges from all current
  /// vertices. Returns the new vertex's local index.
  std::size_t addSample(ProcessId p, const FdValue& d);

  /// Merges a peer's DAG (vertices and edges).
  void unionWith(const FdDag& other);

  std::size_t vertexCount() const { return vertices_.size(); }
  std::size_t edgeCount() const { return edgeCount_; }
  const DagVertex& vertex(std::size_t i) const { return vertices_[i]; }

  /// Direct edge test by local indices.
  bool hasEdge(std::size_t from, std::size_t to) const {
    return succs_[from].contains(static_cast<std::uint32_t>(to));
  }

  /// Number of queries this DAG has recorded locally for p (the paper's
  /// k_p counter of Figure 1; union may import higher-k vertices of p,
  /// which is fine — k only needs to increase per process).
  std::uint64_t localQueryCount(ProcessId p) const;

  /// Indices of all vertices sorted canonically by (k, q, d) — identical
  /// across processes holding the same vertex set.
  std::vector<std::size_t> canonicalOrder() const;

  /// True iff both DAGs contain exactly the same vertices and edges.
  bool sameAs(const FdDag& other) const;

 private:
  friend class DagReach;
  std::vector<DagVertex> vertices_;
  std::unordered_map<DagVertex, std::size_t, DagVertexHash> index_;
  std::vector<std::unordered_set<std::uint32_t>> succs_;
  std::vector<std::uint64_t> queryCount_ = {};  // grown on demand
  std::size_t edgeCount_ = 0;
};

/// Precomputed reachability over an FdDag snapshot. The CHT simulation
/// asks "is vertex v usable after vertex u" constantly; the paper's
/// transitive-closure property (3) makes reachability the right relation
/// (unions of closed graphs may transiently lack closure edges).
class DagReach {
 public:
  explicit DagReach(const FdDag& dag);

  /// True iff to is reachable from `from` via one or more edges.
  bool reaches(std::size_t from, std::size_t to) const {
    return closure_[from][to];
  }

 private:
  std::vector<std::vector<bool>> closure_;
};

/// Gossip message carrying a whole DAG (the communication task of the
/// reduction algorithm, Figure 1).
struct DagGossipMsg {
  FdDag dag;
};

}  // namespace wfd
