// DynamicConnectivity tests: exact component tracking under arbitrary
// add/delete interleavings. Unit cases pin the replacement-search edge
// cases (bridges, cycles, two-clique necks, vertex retirement order);
// the adversarial suite drives the worst case for replacement-edge
// search (cutting a long path bridge by bridge); the property sweep
// differential-tests 12 seeds of randomized operations against a
// from-scratch union-find reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "graph/dynamic_connectivity.hpp"
#include "graph/graph.hpp"
#include "graph/union_find.hpp"

namespace onion::graph {
namespace {

/// From-scratch reference: components / largest / per-size counts of the
/// current edge multiset, via union-find over the tracked vertices.
struct Reference {
  std::uint64_t components = 0;
  std::uint64_t largest = 0;
};

Reference reference_of(const std::vector<NodeId>& vertices,
                       const std::vector<std::pair<NodeId, NodeId>>& edges,
                       std::size_t capacity) {
  UnionFind uf(capacity);
  for (const auto& [u, v] : edges) uf.unite(u, v);
  std::map<std::size_t, std::uint64_t> size_of_root;
  Reference r;
  for (const NodeId u : vertices) {
    const std::uint64_t s = ++size_of_root[uf.find(u)];
    if (s == 1) ++r.components;
    r.largest = std::max(r.largest, s);
  }
  return r;
}

// ====================================================================
// Unit cases
// ====================================================================

TEST(DynConn, SingletonLifecycle) {
  DynamicConnectivity dc(4);
  EXPECT_EQ(dc.components(), 0u);
  EXPECT_EQ(dc.largest_component(), 0u);
  dc.insert_vertex(2);
  EXPECT_TRUE(dc.tracked(2));
  EXPECT_FALSE(dc.tracked(0));
  EXPECT_EQ(dc.components(), 1u);
  EXPECT_EQ(dc.largest_component(), 1u);
  dc.remove_vertex(2);
  EXPECT_FALSE(dc.tracked(2));
  EXPECT_EQ(dc.components(), 0u);
  EXPECT_EQ(dc.largest_component(), 0u);
}

TEST(DynConn, BridgeDeletionSplits) {
  DynamicConnectivity dc(2);
  dc.insert_vertex(0);
  dc.insert_vertex(1);
  dc.insert_edge(0, 1);
  EXPECT_EQ(dc.components(), 1u);
  EXPECT_TRUE(dc.same_component(0, 1));
  dc.remove_edge(0, 1);
  EXPECT_EQ(dc.components(), 2u);
  EXPECT_FALSE(dc.same_component(0, 1));
  EXPECT_EQ(dc.splits(), 1u);
}

TEST(DynConn, CycleEdgeDeletionDoesNotSplit) {
  DynamicConnectivity dc(3);
  for (NodeId u = 0; u < 3; ++u) dc.insert_vertex(u);
  dc.insert_edge(0, 1);
  dc.insert_edge(1, 2);
  dc.insert_edge(2, 0);
  EXPECT_EQ(dc.components(), 1u);
  dc.remove_edge(0, 1);  // replacement path 0-2-1 exists
  EXPECT_EQ(dc.components(), 1u);
  EXPECT_TRUE(dc.same_component(0, 1));
  EXPECT_EQ(dc.splits(), 0u);
  dc.remove_edge(2, 0);  // now 0 is cut off
  EXPECT_EQ(dc.components(), 2u);
  EXPECT_EQ(dc.component_size(1), 2u);
  EXPECT_EQ(dc.component_size(0), 1u);
}

TEST(DynConn, TwoCliquesJoinedByNeck) {
  // Two 4-cliques joined by one edge: cutting intra-clique edges never
  // splits; cutting the neck splits into 4+4.
  DynamicConnectivity dc(8);
  for (NodeId u = 0; u < 8; ++u) dc.insert_vertex(u);
  for (NodeId a = 0; a < 4; ++a)
    for (NodeId b = a + 1; b < 4; ++b) {
      dc.insert_edge(a, b);
      dc.insert_edge(a + 4, b + 4);
    }
  dc.insert_edge(3, 4);
  EXPECT_EQ(dc.components(), 1u);
  EXPECT_EQ(dc.largest_component(), 8u);
  dc.remove_edge(0, 1);  // clique-internal: still connected
  EXPECT_EQ(dc.components(), 1u);
  dc.remove_edge(3, 4);  // the neck
  EXPECT_EQ(dc.components(), 2u);
  EXPECT_EQ(dc.largest_component(), 4u);
  EXPECT_FALSE(dc.same_component(0, 7));
  EXPECT_TRUE(dc.same_component(0, 3));
  EXPECT_TRUE(dc.same_component(4, 7));
}

TEST(DynConn, VertexRemovalAfterEdgeDetachment) {
  // The tracker removes a dying bot's edges one at a time, then the
  // vertex — mirroring Graph::remove_node's observer decomposition.
  DynamicConnectivity dc(4);
  for (NodeId u = 0; u < 4; ++u) dc.insert_vertex(u);
  dc.insert_edge(0, 1);
  dc.insert_edge(0, 2);
  dc.insert_edge(0, 3);
  dc.insert_edge(1, 2);
  EXPECT_EQ(dc.components(), 1u);
  dc.remove_edge(0, 1);
  dc.remove_edge(0, 2);
  dc.remove_edge(0, 3);  // 3 loses its only path to {1,2}
  EXPECT_EQ(dc.degree(0), 0u);
  EXPECT_EQ(dc.components(), 3u);  // {0} {3} {1,2}
  dc.remove_vertex(0);
  EXPECT_EQ(dc.components(), 2u);
  EXPECT_EQ(dc.largest_component(), 2u);
  EXPECT_EQ(dc.num_vertices(), 3u);
}

TEST(DynConn, RemovingNonIsolatedVertexIsRejected) {
  DynamicConnectivity dc(2);
  dc.insert_vertex(0);
  dc.insert_vertex(1);
  dc.insert_edge(0, 1);
  EXPECT_THROW(dc.remove_vertex(0), ContractViolation);
}

// ====================================================================
// Adversarial bridge sequences: worst case for replacement search
// ====================================================================

TEST(DynConnAdversarial, PathCutBridgeByBridge) {
  // A long path is all bridges. Cutting every edge left-to-right forces
  // a (failed) replacement search per cut; the exhausted side is always
  // the single detached prefix vertex, so total work stays linear even
  // though every deletion is the search's worst case.
  constexpr NodeId kN = 400;
  DynamicConnectivity dc(kN);
  for (NodeId u = 0; u < kN; ++u) dc.insert_vertex(u);
  for (NodeId u = 0; u + 1 < kN; ++u) dc.insert_edge(u, u + 1);
  EXPECT_EQ(dc.components(), 1u);
  for (NodeId u = 0; u + 1 < kN; ++u) {
    dc.remove_edge(u, u + 1);
    EXPECT_EQ(dc.components(), static_cast<std::uint64_t>(u) + 2);
    EXPECT_EQ(dc.largest_component(), static_cast<std::uint64_t>(kN) - u - 1);
  }
  EXPECT_EQ(dc.splits(), static_cast<std::uint64_t>(kN) - 1);
  // The exhausted side is the smaller one (±1 alternation step): each
  // prefix cut costs O(1) expansions, not O(remaining path).
  EXPECT_LE(dc.search_steps(), 4u * kN);
}

TEST(DynConnAdversarial, MiddleCutPaysOnlySmallerSide) {
  // Cutting a path exactly in half: the search must charge the smaller
  // side, so the cost is ~n/2 expansions, not ~n.
  constexpr NodeId kN = 256;
  DynamicConnectivity dc(kN);
  for (NodeId u = 0; u < kN; ++u) dc.insert_vertex(u);
  for (NodeId u = 0; u + 1 < kN; ++u) dc.insert_edge(u, u + 1);
  const std::uint64_t before = dc.search_steps();
  dc.remove_edge(kN / 2 - 1, kN / 2);
  EXPECT_EQ(dc.components(), 2u);
  EXPECT_EQ(dc.largest_component(), kN / 2);
  EXPECT_LE(dc.search_steps() - before, kN + 4);  // both frontiers ≈ n/2
}

TEST(DynConnAdversarial, StarCenterRetirement) {
  // A star is n-1 bridges sharing an endpoint; killing the center one
  // spoke at a time rains singletons.
  constexpr NodeId kN = 64;
  DynamicConnectivity dc(kN);
  for (NodeId u = 0; u < kN; ++u) dc.insert_vertex(u);
  for (NodeId u = 1; u < kN; ++u) dc.insert_edge(0, u);
  EXPECT_EQ(dc.largest_component(), kN);
  for (NodeId u = 1; u < kN; ++u) dc.remove_edge(0, u);
  EXPECT_EQ(dc.components(), static_cast<std::uint64_t>(kN));
  EXPECT_EQ(dc.largest_component(), 1u);
  dc.remove_vertex(0);
  EXPECT_EQ(dc.components(), static_cast<std::uint64_t>(kN) - 1);
}

// ====================================================================
// Property sweep: 12 seeds of randomized interleavings vs union-find
// ====================================================================

TEST(DynConnDifferential, MatchesUnionFindRebuildAcrossSeeds) {
  constexpr std::size_t kCap = 96;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    DynamicConnectivity dc(kCap);
    std::vector<NodeId> vertices;
    std::vector<std::pair<NodeId, NodeId>> edges;
    const auto vertex_index = [&](NodeId u) {
      return std::find(vertices.begin(), vertices.end(), u) -
             vertices.begin();
    };
    for (int op = 0; op < 600; ++op) {
      const std::uint64_t kind = rng.uniform(100);
      if (kind < 30 && vertices.size() < kCap) {  // insert vertex
        NodeId u = 0;
        while (dc.tracked(u)) ++u;
        dc.insert_vertex(u);
        vertices.push_back(u);
      } else if (kind < 70 && vertices.size() >= 2) {  // insert edge
        const NodeId u = vertices[rng.uniform(vertices.size())];
        const NodeId v = vertices[rng.uniform(vertices.size())];
        if (u == v) continue;
        const auto present = [&](NodeId a, NodeId b) {
          return std::find(edges.begin(), edges.end(),
                           std::make_pair(std::min(a, b), std::max(a, b))) !=
                 edges.end();
        };
        if (present(u, v)) continue;
        dc.insert_edge(u, v);
        edges.emplace_back(std::min(u, v), std::max(u, v));
      } else if (kind < 90 && !edges.empty()) {  // remove edge
        const std::size_t e = rng.uniform(edges.size());
        dc.remove_edge(edges[e].first, edges[e].second);
        edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(e));
      } else if (!vertices.empty()) {  // retire a vertex (edges first)
        const NodeId u = vertices[rng.uniform(vertices.size())];
        for (std::size_t e = edges.size(); e-- > 0;) {
          if (edges[e].first != u && edges[e].second != u) continue;
          dc.remove_edge(edges[e].first, edges[e].second);
          edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(e));
        }
        dc.remove_vertex(u);
        vertices.erase(vertices.begin() +
                       static_cast<std::ptrdiff_t>(vertex_index(u)));
      }

      const Reference ref = reference_of(vertices, edges, kCap);
      ASSERT_EQ(dc.components(), ref.components)
          << "seed " << seed << " op " << op;
      ASSERT_EQ(dc.largest_component(), ref.largest)
          << "seed " << seed << " op " << op;
      ASSERT_EQ(dc.num_vertices(), vertices.size());
      ASSERT_EQ(dc.num_edges(), edges.size());
    }
  }
}

TEST(DynConnDifferential, CountersAreDeterministic) {
  // Same operation sequence => identical merge/split/search counters —
  // the structure draws no randomness and iterates no unordered state.
  const auto run = [] {
    DynamicConnectivity dc(32);
    Rng rng(99);
    for (NodeId u = 0; u < 32; ++u) dc.insert_vertex(u);
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (int op = 0; op < 300; ++op) {
      const NodeId u = static_cast<NodeId>(rng.uniform(32));
      const NodeId v = static_cast<NodeId>(rng.uniform(32));
      if (u == v) continue;
      const auto key = std::make_pair(std::min(u, v), std::max(u, v));
      const auto it = std::find(edges.begin(), edges.end(), key);
      if (it == edges.end()) {
        dc.insert_edge(key.first, key.second);
        edges.push_back(key);
      } else {
        dc.remove_edge(key.first, key.second);
        edges.erase(it);
      }
    }
    return std::tuple{dc.merges(), dc.splits(), dc.search_steps(),
                      dc.components(), dc.largest_component()};
  };
  EXPECT_EQ(run(), run());
}

// ====================================================================
// Bulk load vs the incremental build it replaces
// ====================================================================

/// The incremental build bulk_load must reproduce: tracked vertices
/// ascending, then every tracked edge by u ascending and neighbors(u).
void load_incrementally(DynamicConnectivity& dc, const Graph& g,
                        const std::vector<std::uint8_t>& track) {
  for (NodeId u = 0; u < track.size(); ++u)
    if (track[u] != 0) dc.insert_vertex(u);
  for (NodeId u = 0; u < track.size(); ++u) {
    if (track[u] == 0) continue;
    for (const NodeId v : g.neighbors(u))
      if (v > u && track[v] != 0) dc.insert_edge(u, v);
  }
}

void expect_same_state(const DynamicConnectivity& bulk,
                       const DynamicConnectivity& incremental) {
  ASSERT_EQ(bulk.num_vertices(), incremental.num_vertices());
  ASSERT_EQ(bulk.num_edges(), incremental.num_edges());
  ASSERT_EQ(bulk.components(), incremental.components());
  ASSERT_EQ(bulk.largest_component(), incremental.largest_component());
  ASSERT_EQ(bulk.merges(), incremental.merges());
  ASSERT_EQ(bulk.splits(), incremental.splits());
  ASSERT_EQ(bulk.search_steps(), incremental.search_steps());
  ASSERT_EQ(bulk.capacity(), incremental.capacity());
  for (NodeId u = 0; u < bulk.capacity(); ++u) {
    ASSERT_EQ(bulk.tracked(u), incremental.tracked(u)) << "slot " << u;
    if (!bulk.tracked(u)) continue;
    ASSERT_EQ(bulk.degree(u), incremental.degree(u)) << "slot " << u;
    ASSERT_EQ(bulk.component_size(u), incremental.component_size(u))
        << "slot " << u;
  }
}

/// A graph with scrambled adjacency order (churned edges), dead slots,
/// and several components when `p` is small.
Graph churned_graph(std::size_t n, double p, Rng& rng) {
  Graph g(n);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v)
      if (rng.bernoulli(p)) g.add_edge(v, u);
  for (int i = 0; i < static_cast<int>(n); ++i) {
    const NodeId u = static_cast<NodeId>(rng.uniform(n));
    if (!g.alive(u) || g.degree(u) == 0) continue;
    g.remove_edge(u, g.neighbors(u)[rng.uniform(g.degree(u))]);
    const NodeId v = static_cast<NodeId>(rng.uniform(n));
    if (g.alive(v)) g.add_edge(u, v);
  }
  for (int i = 0; i < static_cast<int>(n / 10); ++i) {
    const NodeId u = static_cast<NodeId>(rng.uniform(n));
    if (g.alive(u)) g.remove_node(u);
  }
  return g;
}

TEST(DynConnBulkLoad, MatchesIncrementalBuildThroughLaterChurn) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::size_t n = 40 + rng.uniform(120);
    const double p = seed % 2 == 0 ? 0.6 / static_cast<double>(n)
                                    : 6.0 / static_cast<double>(n);
    const Graph g = churned_graph(n, p, rng);
    // Sybil slots: alive but untracked (about one in five).
    std::vector<std::uint8_t> track(n, 0);
    for (NodeId u = 0; u < n; ++u)
      track[u] = g.alive(u) && rng.uniform(5) != 0 ? 1 : 0;

    DynamicConnectivity bulk(n);
    bulk.bulk_load(g, track);
    DynamicConnectivity incremental(n);
    load_incrementally(incremental, g, track);
    ASSERT_NO_FATAL_FAILURE(expect_same_state(bulk, incremental));

    // Same mutations into both: identical search work proves the
    // half-edge lists are laid out identically.
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId u = 0; u < n; ++u)
      if (track[u] != 0)
        for (const NodeId v : g.neighbors(u))
          if (v > u && track[v] != 0) edges.emplace_back(u, v);
    for (int op = 0; op < 400; ++op) {
      const std::uint64_t kind = rng.uniform(100);
      const NodeId u = static_cast<NodeId>(rng.uniform(n));
      const NodeId v = static_cast<NodeId>(rng.uniform(n));
      if (kind < 45 && !edges.empty()) {
        const std::size_t e = rng.uniform(edges.size());
        bulk.remove_edge(edges[e].first, edges[e].second);
        incremental.remove_edge(edges[e].first, edges[e].second);
        edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(e));
      } else if (kind < 85) {
        const auto key = std::make_pair(std::min(u, v), std::max(u, v));
        if (u == v || !bulk.tracked(u) || !bulk.tracked(v) ||
            std::find(edges.begin(), edges.end(), key) != edges.end())
          continue;
        bulk.insert_edge(u, v);
        incremental.insert_edge(u, v);
        edges.push_back(key);
      } else if (kind < 92) {
        if (bulk.tracked(u)) continue;
        bulk.insert_vertex(u);
        incremental.insert_vertex(u);
      } else {
        if (!bulk.tracked(u)) continue;
        for (std::size_t e = edges.size(); e-- > 0;) {
          if (edges[e].first != u && edges[e].second != u) continue;
          bulk.remove_edge(edges[e].first, edges[e].second);
          incremental.remove_edge(edges[e].first, edges[e].second);
          edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(e));
        }
        bulk.remove_vertex(u);
        incremental.remove_vertex(u);
      }
      ASSERT_NO_FATAL_FAILURE(expect_same_state(bulk, incremental))
          << "op " << op;
    }
    EXPECT_GT(bulk.search_steps(), 0u);
  }
}

TEST(DynConnBulkLoad, RequiresAFreshStructure) {
  const Graph g(3);
  const std::vector<std::uint8_t> track = {1, 1, 0};
  DynamicConnectivity dc(3);
  dc.insert_vertex(2);
  EXPECT_THROW(dc.bulk_load(g, track), ContractViolation);
}

}  // namespace
}  // namespace onion::graph
