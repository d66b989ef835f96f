// DDSR self-healing graph tests: the Figure 3 walkthrough, repair/prune/
// refill invariants, and parameterized property sweeps over the paper's
// degrees with and without pruning.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/ddsr.hpp"
#include "core/overlay.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"

namespace onion::core {
namespace {

using graph::Graph;
using graph::NodeId;

TEST(Ddsr, RepairFormsCliqueOverFormerNeighbors) {
  // Star: delete the hub; the paper's rule connects every pair of its
  // neighbors.
  Graph g(5);
  for (NodeId leaf = 1; leaf < 5; ++leaf) g.add_edge(0, leaf);
  Rng rng(1);
  DdsrEngine engine(g, DdsrPolicy{.dmin = 1, .dmax = 10}, rng);
  engine.remove_node(0);
  for (NodeId a = 1; a < 5; ++a)
    for (NodeId b = a + 1; b < 5; ++b)
      EXPECT_TRUE(g.has_edge(a, b)) << a << "," << b;
  EXPECT_EQ(engine.stats().repair_edges_added, 6u);
}

TEST(Ddsr, RepairSkipsExistingEdges) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);  // the pair is already connected
  Rng rng(2);
  DdsrEngine engine(g, DdsrPolicy{.dmin = 1, .dmax = 10}, rng);
  engine.remove_node(0);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_EQ(engine.stats().repair_edges_added, 0u);
}

TEST(Ddsr, Figure3Walkthrough) {
  // The paper's Figure 3: a 3-regular graph with 12 nodes; removing node
  // 7 (neighbors 0, 1, 4) creates edges (0,1), (0,4), (1,4) minus any
  // that already exist. We build the neighborhood explicitly.
  Graph g(12);
  // Node 7's neighbors are 0, 1, 4 as in the figure.
  g.add_edge(7, 0);
  g.add_edge(7, 1);
  g.add_edge(7, 4);
  // Some unrelated structure.
  g.add_edge(0, 5);
  g.add_edge(1, 2);
  g.add_edge(4, 6);
  Rng rng(3);
  DdsrEngine engine(g, DdsrPolicy{.dmin = 1, .dmax = 5}, rng);
  engine.remove_node(7);
  EXPECT_FALSE(g.alive(7));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 4));
  EXPECT_TRUE(g.has_edge(1, 4));
}

TEST(Ddsr, NoRepairBaselineJustRemoves) {
  Graph g(5);
  for (NodeId leaf = 1; leaf < 5; ++leaf) g.add_edge(0, leaf);
  Rng rng(4);
  DdsrEngine engine(g, DdsrPolicy{}, rng);
  engine.remove_node_no_repair(0);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(engine.stats().repair_edges_added, 0u);
  EXPECT_EQ(engine.stats().nodes_removed, 1u);
}

TEST(Ddsr, PruningCapsDegreeAtDmax) {
  Rng rng(5);
  Graph g = graph::random_regular(60, 8, rng);
  DdsrEngine engine(g, DdsrPolicy{.dmin = 8, .dmax = 8, .prune = true},
                    rng);
  for (int i = 0; i < 18; ++i) {
    const auto alive = g.alive_nodes();
    engine.remove_node(alive[rng.uniform(alive.size())]);
    for (const NodeId u : g.alive_nodes())
      ASSERT_LE(g.degree(u), 8u) << "after deletion " << i;
  }
  EXPECT_GT(engine.stats().prune_edges_removed, 0u);
}

TEST(Ddsr, WithoutPruningDegreesGrow) {
  Rng rng(6);
  Graph g = graph::random_regular(60, 8, rng);
  DdsrEngine engine(
      g, DdsrPolicy{.dmin = 8, .dmax = 8, .prune = false, .refill = false},
      rng);
  for (int i = 0; i < 18; ++i) {
    const auto alive = g.alive_nodes();
    engine.remove_node(alive[rng.uniform(alive.size())]);
  }
  std::size_t max_degree = 0;
  for (const NodeId u : g.alive_nodes())
    max_degree = std::max(max_degree, g.degree(u));
  EXPECT_GT(max_degree, 8u);
  EXPECT_EQ(engine.stats().prune_edges_removed, 0u);
}

TEST(Ddsr, RefillRestoresDmin) {
  // A node whose only neighbor dies and whose repair partner set is
  // empty must pull new peers from its NoN.
  Rng rng(7);
  Graph g = graph::random_regular(40, 5, rng);
  DdsrEngine engine(
      g, DdsrPolicy{.dmin = 5, .dmax = 5, .prune = true, .refill = true},
      rng);
  for (int i = 0; i < 12; ++i) {
    const auto alive = g.alive_nodes();
    engine.remove_node(alive[rng.uniform(alive.size())]);
  }
  // All surviving nodes should sit at dmin (enough nodes remain).
  for (const NodeId u : g.alive_nodes())
    EXPECT_EQ(g.degree(u), 5u);
}

TEST(Ddsr, VictimPolicyHighestDegreeTargetsHubs) {
  // One hub with degree 4, others low; pruning a node over dmax must
  // evict the hub first under the paper's policy.
  Graph g(7);
  // node 0: neighbors 1..4 (will exceed dmax=3 after repair).
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  // hub 5 connected everywhere.
  g.add_edge(5, 0);
  g.add_edge(5, 1);
  g.add_edge(5, 2);
  g.add_edge(5, 6);
  // deleting 6 forces 0's degree up via repair with 5's partners? keep
  // it direct: bump 0 over the cap by hand and prune.
  g.add_edge(0, 4);  // degree(0) = 5 now (1,2,3,5,4)
  Rng rng(8);
  DdsrEngine engine(
      g, DdsrPolicy{.dmin = 2, .dmax = 3, .prune = true, .refill = false},
      rng);
  // Removing node 4 (leaf) triggers prune on 0 (degree 4 > 3).
  engine.remove_node(4);
  EXPECT_LE(g.degree(0), 3u);
  EXPECT_FALSE(g.has_edge(0, 5)) << "hub (highest degree) evicted first";
}

struct SweepParams {
  std::size_t n;
  std::size_t k;
  bool prune;
};

class DdsrSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(DdsrSweep, SurvivesThirtyPercentDeletions) {
  const auto [n, k, prune] = GetParam();
  Rng rng(100 + n + k + (prune ? 1 : 0));
  Graph g = graph::random_regular(n, k, rng);
  DdsrEngine engine(
      g, DdsrPolicy{.dmin = k, .dmax = k, .prune = prune, .refill = true},
      rng);
  const std::size_t deletions = n * 3 / 10;
  for (std::size_t i = 0; i < deletions; ++i) {
    const auto alive = g.alive_nodes();
    engine.remove_node(alive[rng.uniform(alive.size())]);
  }
  // The paper's headline property: the self-healing overlay stays
  // connected through a 30% gradual takedown.
  EXPECT_TRUE(graph::is_connected(g));
  if (prune) {
    for (const NodeId u : g.alive_nodes()) EXPECT_LE(g.degree(u), k);
  }
  // No self loops / duplicate edges can exist (Graph enforces); verify
  // the counters add up.
  EXPECT_EQ(engine.stats().nodes_removed, deletions);
}

INSTANTIATE_TEST_SUITE_P(
    PaperDegrees, DdsrSweep,
    ::testing::Values(SweepParams{200, 5, true}, SweepParams{200, 5, false},
                      SweepParams{200, 10, true},
                      SweepParams{200, 10, false},
                      SweepParams{150, 15, true},
                      SweepParams{150, 15, false},
                      SweepParams{400, 10, true}),
    [](const auto& info) {
      std::string name = "n";
      name += std::to_string(info.param.n);
      name += "_k";
      name += std::to_string(info.param.k);
      name += info.param.prune ? "_prune" : "_noprune";
      return name;
    });

TEST(Ddsr, HeavyDeletionsKeepLargestComponentDominant) {
  // Push to 90% deletions (paper: self-repair holds "even up to 90%
  // node deletions").
  Rng rng(9);
  Graph g = graph::random_regular(300, 10, rng);
  DdsrEngine engine(
      g, DdsrPolicy{.dmin = 10, .dmax = 10, .prune = true, .refill = true},
      rng);
  for (int i = 0; i < 270; ++i) {
    const auto alive = g.alive_nodes();
    engine.remove_node(alive[rng.uniform(alive.size())]);
  }
  EXPECT_EQ(g.num_alive(), 30u);
  const auto comps = graph::connected_components(g);
  EXPECT_GE(comps.largest(), g.num_alive() - 2)
      << "overlay must not shatter";
}

TEST(Ddsr, DiameterShrinksAsNetworkShrinks) {
  Rng rng(10);
  Graph g = graph::random_regular(300, 10, rng);
  DdsrEngine engine(
      g, DdsrPolicy{.dmin = 10, .dmax = 10, .prune = true, .refill = true},
      rng);
  Rng mrng(11);
  const std::size_t d0 = graph::diameter_double_sweep(g, 6, mrng);
  for (int i = 0; i < 200; ++i) {
    const auto alive = g.alive_nodes();
    engine.remove_node(alive[rng.uniform(alive.size())]);
  }
  const std::size_t d1 = graph::diameter_double_sweep(g, 6, mrng);
  EXPECT_LE(d1, d0) << "Figure 5e/5f: diameter non-increasing under DDSR";
}

TEST(Ddsr, AblationRandomMatchRepairAddsFewerEdges) {
  Rng rng(12);
  Graph g1 = graph::random_regular(100, 6, rng);
  Graph g2 = g1;  // identical copies
  Rng r1(13), r2(13);
  DdsrEngine full(g1,
                  DdsrPolicy{.dmin = 6,
                             .dmax = 20,
                             .prune = false,
                             .refill = false,
                             .repair = DdsrPolicy::Repair::PairwiseFull},
                  r1);
  DdsrEngine match(g2,
                   DdsrPolicy{.dmin = 6,
                              .dmax = 20,
                              .prune = false,
                              .refill = false,
                              .repair = DdsrPolicy::Repair::RandomMatch},
                   r2);
  for (NodeId u = 0; u < 20; ++u) {
    full.remove_node(u);
    match.remove_node(u);
  }
  EXPECT_GT(full.stats().repair_edges_added,
            match.stats().repair_edges_added);
}

TEST(Ddsr, AblationRandomVictimStillCapsDegree) {
  Rng rng(14);
  Graph g = graph::random_regular(80, 8, rng);
  DdsrEngine engine(g,
                    DdsrPolicy{.dmin = 8,
                               .dmax = 8,
                               .prune = true,
                               .refill = true,
                               .victim = DdsrPolicy::Victim::Random},
                    rng);
  for (int i = 0; i < 24; ++i) {
    const auto alive = g.alive_nodes();
    engine.remove_node(alive[rng.uniform(alive.size())]);
  }
  for (const NodeId u : g.alive_nodes()) EXPECT_LE(g.degree(u), 8u);
}

// --- the shared eviction and refill rules ---------------------------

TEST(HighestPeer, InvalidWhenNoPeerHasAPositiveKey) {
  Rng rng(21);
  Rng twin(21);
  const auto zero = [](NodeId) { return std::size_t{0}; };
  EXPECT_EQ(highest_peer({}, zero, rng), graph::kInvalidNode);
  EXPECT_EQ(highest_peer({4, 7, 9}, zero, rng), graph::kInvalidNode);
  // Zero keys never tie, so nothing was drawn.
  EXPECT_EQ(rng.next_u64(), twin.next_u64());
}

TEST(HighestPeer, NeverPicksAZeroKeyPeer) {
  const std::vector<std::size_t> key = {0, 3, 0, 3, 0, 1};
  const auto by_key = [&key](NodeId p) { return key[p]; };
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    Rng rng(seed);
    const NodeId pick = highest_peer({0, 1, 2, 3, 4, 5}, by_key, rng);
    EXPECT_TRUE(pick == 1 || pick == 3) << "seed " << seed;
  }
}

TEST(HighestPeer, TiesFollowAReservoirWalkWithOneDrawPerTie) {
  // Keys 5, 5, 7, 1, 7, 7: the first 7 resets the walk without a draw,
  // every later equal key draws uniform(ties) once.
  const std::vector<NodeId> peers = {10, 11, 12, 13, 14, 15};
  const std::vector<std::size_t> key = {5, 5, 7, 1, 7, 7};
  const auto by_key = [&](NodeId p) { return key[p - 10]; };
  std::vector<bool> seen(peers.size(), false);
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng(seed);
    Rng twin(seed);
    twin.uniform(2);  // 11 ties 10; 12's higher key then wins outright
    NodeId want = 12;
    if (twin.uniform(2) == 0) want = 14;  // 14 ties 12
    if (twin.uniform(3) == 0) want = 15;  // 15 ties both
    const NodeId got = highest_peer(peers, by_key, rng);
    EXPECT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(rng.next_u64(), twin.next_u64()) << "seed " << seed;
    seen[got - 10] = true;
  }
  EXPECT_TRUE(seen[2] && seen[4] && seen[5]) << "every tied peer can win";
}

TEST(NonCandidates, ExcludesSelfAndNeighborsDedupsAndKeepsFirstSeenOrder) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 4);  // 1's list: 0, 4, 3, 2
  g.add_edge(1, 3);
  g.add_edge(1, 2);
  g.add_edge(2, 5);  // 2's list: 0, 1, 5, 4
  g.add_edge(2, 4);
  std::vector<std::uint8_t> mark;
  EXPECT_EQ(non_candidates(g, 0, mark), (std::vector<NodeId>{4, 3, 5}));
  EXPECT_TRUE(non_candidates(Graph(1), 0, mark).empty());
}

// The has_edge + std::find scan non_candidates ran before its mark array,
// kept verbatim as the reference.
std::vector<NodeId> scan_non_candidates(const Graph& g, NodeId u) {
  std::vector<NodeId> out;
  for (const NodeId n : g.neighbors(u)) {
    for (const NodeId nn : g.neighbors(n)) {
      if (nn == u || g.has_edge(u, nn)) continue;
      if (std::find(out.begin(), out.end(), nn) == out.end())
        out.push_back(nn);
    }
  }
  return out;
}

TEST(NonCandidates, MarkScanMatchesAdjacencyScanOnChurnedOverlays) {
  // Random sparse and dense overlays, churned so that dead slots, swap-
  // erased adjacency orders and Sybil clones (declaring degree 1, so
  // they evict their way in) all occur; one caller array is shared
  // across overlays, as the engines share theirs across calls.
  std::vector<std::uint8_t> mark;
  std::size_t nonempty = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    const std::size_t k = seed % 2 == 0 ? 4 : 10;
    const std::size_t n =
        2 * (12 + static_cast<std::size_t>(rng.uniform(30)));
    OverlayNetwork net = OverlayNetwork::random_regular(
        n, k, OverlayConfig{.dmin = k, .dmax = k}, rng);
    for (int step = 0; step < 150; ++step) {
      const std::vector<NodeId> honest = net.honest_nodes();
      switch (rng.uniform(4)) {
        case 0:  // takedown leaves a dead slot
          if (honest.size() > 4) net.retire(rng.pick(honest));
          break;
        case 1: {  // Sybil clone injection
          const NodeId clone = net.add_node(/*honest=*/false, 1);
          for (const NodeId t : rng.sample(honest, 3))
            net.request_peering(clone, t);
          break;
        }
        case 2: {  // a bot forgets a peer, then refills from its NoN
          const NodeId a = rng.pick(honest);
          if (net.neighbors(a).empty()) break;
          const NodeId b = rng.pick(net.neighbors(a));
          net.drop_edge(a, b);
          net.refill(a);
          break;
        }
        case 3: {  // honest peering request (may evict)
          const NodeId a = rng.pick(honest);
          const NodeId b = rng.pick(honest);
          if (a != b) net.request_peering(a, b);
          break;
        }
      }
      const graph::Graph& g = net.graph();
      for (const NodeId u : g.alive_nodes()) {
        const std::vector<NodeId> got = non_candidates(g, u, mark);
        ASSERT_EQ(got, scan_non_candidates(g, u))
            << "seed " << seed << " step " << step << " node " << u;
        ASSERT_TRUE(std::all_of(mark.begin(), mark.end(),
                                [](std::uint8_t m) { return m == 0; }))
            << "seed " << seed << " step " << step << " node " << u;
        if (!got.empty()) ++nonempty;
      }
    }
  }
  EXPECT_GT(nonempty, 0u);
}

}  // namespace
}  // namespace onion::core
