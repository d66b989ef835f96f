#include "graph/generators.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace onion::graph {

ForwardEdgeIndex::ForwardEdgeIndex(const Graph& g) : g_(g) {
  forward_.assign(g.capacity(), [&g](std::size_t u) {
    std::size_t count = 0;
    if (!g.alive(static_cast<NodeId>(u))) return count;
    for (const NodeId v : g.neighbors(static_cast<NodeId>(u)))
      if (v > u) ++count;
    return count;
  });
  size_ = g.num_edges();
}

std::pair<NodeId, NodeId> ForwardEdgeIndex::at(std::size_t i) const {
  ONION_EXPECTS_MSG(i < size_, "i=" << i << " size=" << size_);
  const auto u = static_cast<NodeId>(forward_.find(i));
  std::size_t j = i - forward_.prefix(u);
  for (const NodeId v : g_.neighbors(u)) {
    if (v < u) continue;
    if (j == 0) return {u, v};
    --j;
  }
  ONION_ENSURES_MSG(false, "forward index out of step at node " << u);
  return {kInvalidNode, kInvalidNode};  // unreachable
}

void ForwardEdgeIndex::added(NodeId a, NodeId b) {
  forward_.add(std::min(a, b), 1);
  ++size_;
}

void ForwardEdgeIndex::removed(NodeId a, NodeId b) {
  forward_.subtract(std::min(a, b), 1);
  --size_;
}

namespace {

// One configuration-model attempt: pair up node stubs; clashing pairs
// (self-loops / duplicates) are resolved afterwards by edge swaps.
bool try_regular(Graph& g, std::size_t n, std::size_t k, Rng& rng) {
  std::vector<NodeId> stubs;
  stubs.reserve(n * k);
  for (NodeId u = 0; u < n; ++u)
    for (std::size_t c = 0; c < k; ++c) stubs.push_back(u);
  rng.shuffle(stubs);

  std::vector<std::pair<NodeId, NodeId>> clashes;
  for (std::size_t i = 0; i < stubs.size(); i += 2) {
    const NodeId u = stubs[i], v = stubs[i + 1];
    if (u == v || g.has_edge(u, v)) {
      clashes.emplace_back(u, v);
    } else {
      g.add_edge_unchecked(u, v);
    }
  }
  if (clashes.empty()) return true;

  // Repair each clash {u,v} by stealing a random compatible edge {a,b}:
  // replace it with {u,a} and {v,b}. Preserves all degrees.
  ForwardEdgeIndex edges(g);
  for (const auto& [u, v] : clashes) {
    bool fixed = false;
    for (int attempt = 0; attempt < 200 && !fixed; ++attempt) {
      if (edges.size() == 0) break;
      auto [a, b] =
          edges.at(static_cast<std::size_t>(rng.uniform(edges.size())));
      if (rng.bernoulli(0.5)) std::swap(a, b);
      if (a == u || a == v || b == u || b == v) continue;
      if (g.has_edge(u, a) || g.has_edge(v, b)) continue;
      // {u,a} != {v,b}: that would need a == b, or u == b and a == v.
      g.remove_edge(a, b);
      edges.removed(a, b);
      g.add_edge_unchecked(u, a);
      edges.added(u, a);
      g.add_edge_unchecked(v, b);
      edges.added(v, b);
      fixed = true;
    }
    if (!fixed) return false;
  }
  return true;
}

}  // namespace

Graph random_regular(std::size_t n, std::size_t k, Rng& rng) {
  if (k >= n) throw std::invalid_argument("random_regular: need k < n");
  if ((n * k) % 2 != 0)
    throw std::invalid_argument("random_regular: n*k must be even");

  for (int restart = 0; restart < 50; ++restart) {
    Graph g(n);
    g.reserve_neighbors(k);
    if (try_regular(g, n, k, rng)) return g;
  }
  throw std::runtime_error("random_regular: generation failed repeatedly");
}

Graph erdos_renyi(std::size_t n, double p, Rng& rng) {
  Graph g(n);
  if (p <= 0.0) return g;
  for (NodeId u = 0; u + 1 < n; ++u)
    for (NodeId v = u + 1; v < n; ++v)
      if (rng.bernoulli(p)) g.add_edge(u, v);
  return g;
}

}  // namespace onion::graph
