// StructuralTracker tests: the differential property sweep (random
// campaign op interleavings — joins, leaves, takedowns, repair/refill,
// Sybil injection/retirement, and SOAP capture bursts — must leave the
// tracker byte-identical to the from-scratch sweep after every window,
// across many seeds), the fully-dynamic component scheme's zero-rebuild
// contract (deletion windows update connectivity in place), the honest
// order-statistics used for engine victim draws, and the attach/detach
// contract.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/ddsr.hpp"
#include "mitigation/soap.hpp"
#include "scenario/tracker.hpp"

namespace onion::scenario {
namespace {

using core::DdsrEngine;
using core::DdsrPolicy;
using core::OverlayConfig;
using core::OverlayNetwork;
using graph::NodeId;

constexpr std::size_t kDegree = 6;

OverlayNetwork make_overlay(std::size_t n, Rng& rng) {
  OverlayConfig config;
  config.dmin = kDegree;
  config.dmax = kDegree;
  return OverlayNetwork::random_regular(n, kDegree, config, rng);
}

DdsrPolicy policy() {
  DdsrPolicy p;
  p.dmin = kDegree;
  p.dmax = kDegree;
  return p;
}

// ====================================================================
// Differential property sweep: tracker == sweep after every window
// ====================================================================

// One random campaign op against the overlay: the same vocabulary the
// engine drives (join + bootstrap peering, healed leave, unhealed
// takedown, refill repair, Sybil clone injection, Sybil retirement, and
// a short SOAP capture burst).
void random_op(OverlayNetwork& net, DdsrEngine& ddsr, Rng& rng) {
  const std::vector<NodeId> honest = net.honest_nodes();
  switch (rng.uniform(7)) {
    case 0: {  // join with bootstrap peering
      const NodeId id = net.add_node(/*honest=*/true);
      const std::size_t want = std::min<std::size_t>(kDegree, honest.size());
      for (const NodeId target : rng.sample(honest, want)) {
        NodeId evicted = graph::kInvalidNode;
        net.request_peering(id, target, &evicted);
        if (evicted != graph::kInvalidNode) net.refill(evicted);
      }
      net.refill(id);
      break;
    }
    case 1:  // healed leave (DDSR clique repair + prune + refill)
      if (honest.size() > 2) ddsr.remove_node(rng.pick(honest));
      break;
    case 2:  // unhealed takedown (the Figure 6 simultaneous model)
      if (honest.size() > 2) ddsr.remove_node_no_repair(rng.pick(honest));
      break;
    case 3:  // repair pass on a random bot
      if (!honest.empty()) net.refill(rng.pick(honest));
      break;
    case 4: {  // Sybil clone injection (declares a lying degree of 1)
      const NodeId clone = net.add_node(/*honest=*/false, 1);
      if (!honest.empty()) net.request_peering(clone, rng.pick(honest));
      break;
    }
    case 5: {  // Sybil retirement
      std::vector<NodeId> sybils;
      for (NodeId u = 0; u < net.graph().capacity(); ++u)
        if (net.alive(u) && !net.honest(u)) sybils.push_back(u);
      if (!sybils.empty()) net.retire(rng.pick(sybils));
      break;
    }
    case 6: {  // SOAP capture burst: clone injection + eviction churn
      if (honest.empty()) break;
      mitigation::SoapCampaign soap(net, mitigation::SoapConfig{}, rng);
      soap.capture(rng.pick(honest));
      for (int step = 0; step < 3 && soap.step(); ++step) {
      }
      break;
    }
  }
}

TEST(TrackerDifferential, MatchesSweepAfterEveryWindowAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    OverlayNetwork net = make_overlay(120, rng);
    DdsrEngine ddsr(net.graph_mut(), policy(), rng);
    StructuralTracker tracker(net);
    for (int window = 0; window < 40; ++window) {
      for (int op = 0; op < 8; ++op) random_op(net, ddsr, rng);
      MetricsSnapshot incremental;
      tracker.fill(incremental, /*with_histogram=*/true);
      const MetricsSnapshot sweep = sweep_structural(net, true);
      ASSERT_EQ(serialize(incremental), serialize(sweep))
          << "seed " << seed << " window " << window << ": tracker ("
          << incremental.honest_alive << "n/" << incremental.honest_edges
          << "e/" << incremental.components << "c) vs sweep ("
          << sweep.honest_alive << "n/" << sweep.honest_edges << "e/"
          << sweep.components << "c)";
    }
  }
}

TEST(TrackerDifferential, MatchesSweepWithHistogramDisabled) {
  Rng rng(77);
  OverlayNetwork net = make_overlay(80, rng);
  DdsrEngine ddsr(net.graph_mut(), policy(), rng);
  StructuralTracker tracker(net);
  for (int op = 0; op < 50; ++op) random_op(net, ddsr, rng);
  MetricsSnapshot incremental;
  tracker.fill(incremental, /*with_histogram=*/false);
  EXPECT_TRUE(incremental.degree_histogram.empty());
  EXPECT_EQ(serialize(incremental), serialize(sweep_structural(net, false)));
}

// ====================================================================
// Fully-dynamic component scheme: rebuilds are gone for good
// ====================================================================

TEST(TrackerDynamic, PureGrowthWindowsNeverRebuild) {
  Rng rng(5);
  OverlayNetwork net = make_overlay(60, rng);
  StructuralTracker tracker(net);
  MetricsSnapshot s;
  tracker.fill(s, true);

  for (int window = 0; window < 5; ++window) {
    const std::vector<NodeId> honest = net.honest_nodes();
    const NodeId id = net.add_node(/*honest=*/true);
    for (const NodeId target : rng.sample(honest, 3))
      net.graph_mut().add_edge(id, target);
    tracker.fill(s, true);
  }
  EXPECT_EQ(s.components, 1u);
  EXPECT_EQ(s.honest_alive, 65u);
}

TEST(TrackerDynamic, DeletionWindowsNeedNoRebuildAndStayExact) {
  Rng rng(6);
  OverlayNetwork net = make_overlay(60, rng);
  DdsrEngine ddsr(net.graph_mut(), policy(), rng);
  StructuralTracker tracker(net);

  // Deletions — healed and unhealed, one per window or several — are
  // folded in as they happen: no dirty flag, no rebuild, and the fill
  // stays byte-identical to the from-scratch sweep.
  ddsr.remove_node(net.honest_nodes().front());
  MetricsSnapshot s;
  tracker.fill(s, true);
  EXPECT_EQ(serialize(s), serialize(sweep_structural(net, true)));

  for (int i = 0; i < 4; ++i)
    ddsr.remove_node_no_repair(net.honest_nodes().front());
  tracker.fill(s, true);
  EXPECT_EQ(serialize(s), serialize(sweep_structural(net, true)));

  // A fill with no intervening mutations is unchanged too.
  MetricsSnapshot again;
  tracker.fill(again, true);
  EXPECT_EQ(serialize(again), serialize(s));
}

TEST(TrackerDynamic, SybilOnlyChangesNeverTouchConnectivity) {
  Rng rng(7);
  // Spare degree capacity: the clone must be accepted without evicting
  // an honest peer (an eviction would drop an honest-honest edge, which
  // legitimately exercises the dynamic structure).
  OverlayConfig config;
  config.dmin = kDegree;
  config.dmax = kDegree + 2;
  OverlayNetwork net =
      OverlayNetwork::random_regular(40, kDegree, config, rng);
  StructuralTracker tracker(net);
  const auto splits_before = tracker.connectivity().splits();
  const auto merges_before = tracker.connectivity().merges();
  const NodeId clone = net.add_node(/*honest=*/false, 1);
  net.request_peering(clone, net.honest_nodes().front());
  net.retire(clone);  // drops an honest-Sybil edge + a Sybil node
  MetricsSnapshot s;
  tracker.fill(s, true);
  // Sybil slots never enter the honest connectivity structure at all.
  EXPECT_EQ(tracker.connectivity().splits(), splits_before);
  EXPECT_EQ(tracker.connectivity().merges(), merges_before);
  EXPECT_EQ(serialize(s), serialize(sweep_structural(net, true)));
}

// ====================================================================
// Regressions: histogram trailing zeros, dead union-find slots
// ====================================================================

TEST(TrackerRegression, MaxDegreeTakedownsTrimHistogramBytes) {
  // Taking down the max-degree bot (unhealed, so nobody re-fills into
  // the top bucket) can leave the incremental histogram with trailing
  // zero buckets the sweep never emits — the serialized snapshots must
  // stay byte-identical anyway.
  Rng rng(11);
  OverlayNetwork net = make_overlay(60, rng);
  DdsrEngine ddsr(net.graph_mut(), policy(), rng);
  StructuralTracker tracker(net);
  for (int round = 0; round < 6; ++round) {
    const std::vector<NodeId> honest = net.honest_nodes();
    if (honest.size() <= 2) break;
    NodeId top = honest.front();
    for (const NodeId u : honest)
      if (net.graph().degree(u) > net.graph().degree(top)) top = u;
    ddsr.remove_node_no_repair(top);
    MetricsSnapshot inc;
    tracker.fill(inc, /*with_histogram=*/true);
    const MetricsSnapshot sweep = sweep_structural(net, true);
    ASSERT_EQ(inc.degree_histogram.size(), sweep.degree_histogram.size())
        << "trailing-zero buckets leaked in round " << round;
    ASSERT_EQ(serialize(inc), serialize(sweep)) << "round " << round;
  }
}

TEST(TrackerRegression, DeadSlotsNeverInflateComponents) {
  // UnionFind::num_sets() counts the whole universe, dead slots
  // included; every consumer must compensate. Remove nodes, then check
  // the tracker, the sweep, and the overlay's own component count agree.
  Rng rng(12);
  OverlayNetwork net = make_overlay(40, rng);
  DdsrEngine ddsr(net.graph_mut(), policy(), rng);
  StructuralTracker tracker(net);
  for (int i = 0; i < 10; ++i)
    ddsr.remove_node(net.honest_nodes().front());
  MetricsSnapshot s;
  tracker.fill(s, true);
  const MetricsSnapshot sweep = sweep_structural(net, true);
  EXPECT_EQ(s.components, sweep.components);
  EXPECT_EQ(s.components, net.honest_components());
  EXPECT_EQ(serialize(s), serialize(sweep));
}

// ====================================================================
// Honest order statistics: the engine's victim-draw primitives
// ====================================================================

TEST(TrackerOrderStat, HonestAtMatchesHonestNodesVector) {
  Rng rng(13);
  OverlayNetwork net = make_overlay(80, rng);
  DdsrEngine ddsr(net.graph_mut(), policy(), rng);
  StructuralTracker tracker(net);
  for (int window = 0; window < 20; ++window) {
    for (int op = 0; op < 5; ++op) random_op(net, ddsr, rng);
    const std::vector<NodeId> honest = net.honest_nodes();
    ASSERT_EQ(tracker.honest_alive(), honest.size());
    for (std::size_t k = 0; k < honest.size(); ++k)
      ASSERT_EQ(tracker.honest_at(k), honest[k])
          << "window " << window << " rank " << k;
  }
}

// The engine's bootstrap draw before join_targets, kept verbatim as the
// reference: copy honest_nodes(), erase the newcomer, then Rng::sample's
// former partial Fisher–Yates over a second copy.
std::vector<NodeId> copied_join_targets(const OverlayNetwork& net, NodeId id,
                                        Rng& rng) {
  std::vector<NodeId> candidates = net.honest_nodes();
  std::erase(candidates, id);
  if (candidates.empty()) return {};
  const std::size_t want = std::min(kDegree, candidates.size());
  std::vector<NodeId> pool = candidates;
  for (std::size_t i = 0; i < want; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform(pool.size() - i));
    using std::swap;
    swap(pool[i], pool[j]);
  }
  pool.resize(want);
  return pool;
}

TEST(TrackerOrderStat, JoinTargetsMatchCopiedSampleAcrossChurn) {
  // Shrink windows (mostly leaves and takedowns) alternate with growth
  // windows (mostly joins), so joins land on full populations, on ones
  // smaller than the degree, and on a lone survivor.
  std::size_t joins = 0;
  std::size_t short_joins = 0;  // fewer other honest bots than kDegree
  std::size_t lone_joins = 0;   // the newcomer is the only honest bot
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    OverlayNetwork net = make_overlay(24, rng);
    DdsrEngine ddsr(net.graph_mut(), policy(), rng);
    StructuralTracker tracker(net);
    for (int op = 0; op < 400; ++op) {
      const bool growing = (op / 50) % 2 == 1;
      const std::uint64_t roll = rng.uniform(20);
      const std::uint64_t honest = tracker.honest_alive();
      if (roll < (growing ? 14u : 3u)) {
        const NodeId id = net.add_node(/*honest=*/true);
        Rng ref = rng;
        const std::vector<NodeId> want = copied_join_targets(net, id, ref);
        const std::vector<NodeId> got = tracker.join_targets(id, kDegree, rng);
        ASSERT_EQ(got, want) << "seed " << seed << " op " << op;
        ASSERT_EQ(rng.next_u64(), ref.next_u64())
            << "seed " << seed << " op " << op;
        ++joins;
        if (honest < kDegree) ++short_joins;
        if (honest == 0) ++lone_joins;
        for (const NodeId target : got) {
          NodeId evicted = graph::kInvalidNode;
          net.request_peering(id, target, &evicted);
          if (evicted != graph::kInvalidNode) net.refill(evicted);
        }
        if (!got.empty()) net.refill(id);
      } else if (roll < 17 && honest > 0) {
        // A leave never takes the last bot; a takedown may.
        const NodeId bot = tracker.honest_at(rng.uniform(honest));
        if (roll % 2 == 0 && honest > 1) {
          ddsr.remove_node(bot);  // healed leave
        } else {
          ddsr.remove_node_no_repair(bot);  // takedown
        }
      } else if (roll == 17 && honest > 0) {  // Sybil clone injection
        const NodeId clone = net.add_node(/*honest=*/false, 1);
        net.request_peering(clone, tracker.honest_at(rng.uniform(honest)));
      } else if (roll >= 18 && honest > 0) {  // SOAP capture burst
        mitigation::SoapCampaign soap(net, mitigation::SoapConfig{}, rng);
        soap.capture(tracker.honest_at(rng.uniform(honest)));
        for (int step = 0; step < 3 && soap.step(); ++step) {
        }
      }
    }
  }
  EXPECT_GT(joins, 1000u);
  EXPECT_GT(short_joins, 0u);
  EXPECT_GT(lone_joins, 0u);
}

TEST(TrackerOrderStat, JoinTargetsRejectANewcomerThatIsNotLast) {
  Rng rng(14);
  OverlayNetwork net = make_overlay(20, rng);
  StructuralTracker tracker(net);
  const NodeId id = net.add_node(/*honest=*/true);
  net.add_node(/*honest=*/true);  // a later bot now holds the last rank
  EXPECT_THROW(tracker.join_targets(id, kDegree, rng), ContractViolation);
}

// ====================================================================
// Attach / detach contract
// ====================================================================

TEST(Tracker, SecondTrackerOnSameGraphRejected) {
  Rng rng(8);
  OverlayNetwork net = make_overlay(20, rng);
  StructuralTracker tracker(net);
  EXPECT_THROW(StructuralTracker second(net), ContractViolation);
}

TEST(Tracker, DetachesOnDestructionSoASuccessorCanAttach) {
  Rng rng(9);
  OverlayNetwork net = make_overlay(20, rng);
  {
    StructuralTracker tracker(net);
    EXPECT_EQ(net.graph().observer(), &tracker);
  }
  EXPECT_EQ(net.graph().observer(), nullptr);
  StructuralTracker successor(net);  // re-absorbs the live state
  MetricsSnapshot s;
  successor.fill(s, true);
  EXPECT_EQ(s.honest_alive, 20u);
  EXPECT_EQ(serialize(s), serialize(sweep_structural(net, true)));
}

TEST(Tracker, FirstFillOnFreshOverlayMatchesSweep) {
  // Attach bulk-loads the freshly built overlay; its first snapshot and
  // its counters must be what the mutation-by-mutation build produced.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    OverlayNetwork net = make_overlay(300, rng);
    StructuralTracker tracker(net);
    MetricsSnapshot s;
    tracker.fill(s, true);
    EXPECT_EQ(serialize(s), serialize(sweep_structural(net, true)))
        << "seed " << seed;
    const graph::DynamicConnectivity& dc = tracker.connectivity();
    EXPECT_EQ(dc.num_edges(), net.graph().num_edges());
    EXPECT_EQ(dc.merges(), dc.num_vertices() - dc.components());
    EXPECT_EQ(dc.splits(), 0u);
    EXPECT_EQ(dc.search_steps(), 0u);
    for (std::size_t k = 0; k < 300; ++k)
      ASSERT_EQ(tracker.honest_at(k), k);
  }
}

TEST(Tracker, AbsorbsMidCampaignState) {
  // Attaching to a graph that already lived through churn must start
  // from the current truth, not zero.
  Rng rng(10);
  OverlayNetwork net = make_overlay(50, rng);
  DdsrEngine ddsr(net.graph_mut(), policy(), rng);
  for (int op = 0; op < 30; ++op) random_op(net, ddsr, rng);
  StructuralTracker tracker(net);
  MetricsSnapshot s;
  tracker.fill(s, true);
  EXPECT_EQ(serialize(s), serialize(sweep_structural(net, true)));
}

}  // namespace
}  // namespace onion::scenario
