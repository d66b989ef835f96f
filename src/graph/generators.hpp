// Random graph generators. The paper's overlays start as k-regular graphs
// ("we simulate the node deletion process in a k-regular graph,
// k = 5, 10, 15, of 5000 nodes" — Section V-B).
#pragma once

#include <cstddef>
#include <utility>

#include "common/fenwick.hpp"
#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace onion::graph {

/// Uniform-ish random simple k-regular graph on n nodes via the
/// configuration model with edge-swap repair of clashes. Requirements:
/// n > k, and n*k even; throws std::invalid_argument otherwise.
///
/// Cost O(nk + clashes·(log n + k)) per attempt: a clash repair draws
/// its victim edge through a Fenwick index over per-node forward-edge
/// counts instead of rebuilding an O(nk) edge list.
///
/// Draw-identity contract: every golden starts here, so the RNG draws
/// (the stub shuffle, then per repair attempt one uniform(edge count)
/// over the edges {u,v}, u < v, listed by u ascending and neighbors(u)
/// order, and one bernoulli(0.5) orientation), the adjacency lists and
/// their order are fixed. A faster implementation must reproduce them
/// exactly; tests/graph_test.cpp compares against a copy of the
/// list-rebuilding generator.
Graph random_regular(std::size_t n, std::size_t k, Rng& rng);

/// The edges {u,v}, u < v, of a live graph, addressed by position in the
/// list that scanning u ascending and then neighbors(u) would produce —
/// without building that list. A Fenwick tree over each node's
/// forward-edge count (neighbours v > u) finds the owning u in
/// O(log n); a scan of u's adjacency finds the j-th forward neighbour
/// in O(deg). It reads the live adjacency, so at(i) is always the i-th
/// entry of the list rebuilt from scratch. The caller reports every
/// edge mutation through added()/removed(), after applying it to the
/// graph. random_regular's clash repair draws its victim edge here.
class ForwardEdgeIndex {
 public:
  explicit ForwardEdgeIndex(const Graph& g);

  /// Number of edges.
  std::size_t size() const { return size_; }

  /// The i-th edge, as (u, v) with u < v. Precondition: i < size().
  std::pair<NodeId, NodeId> at(std::size_t i) const;

  void added(NodeId a, NodeId b);
  void removed(NodeId a, NodeId b);

 private:
  const Graph& g_;
  FenwickTree<std::size_t> forward_;
  std::size_t size_ = 0;
};

/// G(n, p) Erdős–Rényi graph (used by tests and ablations).
Graph erdos_renyi(std::size_t n, double p, Rng& rng);

}  // namespace onion::graph
