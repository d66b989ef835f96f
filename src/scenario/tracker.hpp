// Event-driven structural telemetry. A StructuralTracker attaches to the
// overlay's graph as a graph::MutationObserver and keeps every structural
// field of MetricsSnapshot — honest/Sybil alive counts, honest-edge count,
// degree sum, the honest degree histogram, components, and the largest
// component — exact per mutation, so a snapshot costs O(1) plus the
// histogram copy instead of the O((n+m)·α) slot-table sweep the engine
// used to pay per snapshot.
//
// The honest subgraph lives in a fully-dynamic connectivity structure
// (graph::DynamicConnectivity), which owns the honest alive count, the
// honest-edge count, the components and the largest component — the
// tracker keeps no second copy of them. Insertions merge by weighted
// relabeling, deletions run a bidirectional replacement-path search.
// There is no dirty flag and no deletion-window rebuild cliff —
// takedown-heavy campaigns (the paper's Section V resilience sweeps) pay
// per-event costs proportional to actual structural change, not to
// graph size. tests/tracker_test.cpp proves byte-equality with the
// from-scratch sweep across randomized join/leave/takedown/SOAP
// interleavings; bench/micro_snapshot.cpp measures the deletion-window
// fill against the sweep.
//
// The tracker also keeps an order-statistics bitmap over honest alive
// slots, so the engine can draw a uniform honest victim in O(log n)
// (honest_at(k) == honest_nodes()[k] without building the vector). The
// same ranks serve join targets: join_targets() walks rng.sample_indices
// through honest_at, so a bootstrap join costs O(degree · log n) instead
// of two O(n) copies of the honest population.
#pragma once

#include <cstdint>
#include <vector>

#include "common/order_stat.hpp"
#include "common/rng.hpp"
#include "core/overlay.hpp"
#include "graph/dynamic_connectivity.hpp"
#include "graph/graph.hpp"
#include "scenario/snapshot.hpp"

namespace onion::scenario {

/// Reference implementation: the from-scratch O((n+m)·α) sweep of the
/// same structural fields the tracker maintains incrementally (exactly
/// the engine's former per-snapshot pass). Non-structural fields are left
/// at their defaults. The differential tests and the sweep-vs-incremental
/// micro bench compare against this.
MetricsSnapshot sweep_structural(const core::OverlayNetwork& net,
                                 bool degree_histogram);

/// Maintains the structural snapshot fields per graph mutation. Attaches
/// to net.graph_mut() on construction and absorbs the current state by
/// bulk load — one slot pass for the counts, then
/// DynamicConnectivity::bulk_load and an O(n) OrderStatSet::assign,
/// which leave the same neighbour-run order and counters as inserting
/// the graph mutation by mutation — and detaches in the destructor. One
/// tracker per graph; nodes must enter through OverlayNetwork::add_node
/// so honesty metadata exists when the node-added callback classifies
/// them.
class StructuralTracker final : public graph::MutationObserver {
 public:
  using NodeId = graph::NodeId;

  explicit StructuralTracker(core::OverlayNetwork& net);
  ~StructuralTracker() override;
  StructuralTracker(const StructuralTracker&) = delete;
  StructuralTracker& operator=(const StructuralTracker&) = delete;

  // graph::MutationObserver — insertions are O(1) amortized (weighted-
  // union relabeling); an honest-honest edge removal pays a replacement-
  // path search bounded by the smaller side of the (potential) split.
  void on_node_added(NodeId u) override;
  void on_node_removed(NodeId u) override;
  void on_edge_added(NodeId u, NodeId v) override;
  void on_edge_removed(NodeId u, NodeId v) override;

  /// Writes the structural fields into `s`: byte-identical to
  /// sweep_structural() on the same state. Always O(1) plus the
  /// histogram copy — deletions were already folded in when they
  /// happened, so there is no rebuild path.
  void fill(MetricsSnapshot& s, bool with_histogram);

  /// --- honest-population order statistics ----------------------------
  /// Number of honest alive nodes.
  std::uint64_t honest_alive() const { return dc_.num_vertices(); }
  /// Id of the k-th honest alive node in ascending id order — equal to
  /// net.honest_nodes()[k], in O(log n) and without the O(n) vector.
  NodeId honest_at(std::uint64_t k) const {
    return static_cast<NodeId>(honest_set_.select(k));
  }
  /// Bootstrap peering targets of `newcomer`, which must be the highest
  /// honest id (checked): min(degree, honest_alive() − 1) distinct
  /// honest bots other than it. Equal, draw for draw and in order, to
  /// rng.sample(honest_nodes() minus newcomer, want), but each target is
  /// a rank of rng.sample_indices read through honest_at — O(degree ·
  /// log n). All draws happen before the first target is returned.
  std::vector<NodeId> join_targets(NodeId newcomer, std::size_t degree,
                                   Rng& rng) const;

  /// --- introspection (tests and benches) -----------------------------
  /// The underlying connectivity structure (search-step counters etc.).
  const graph::DynamicConnectivity& connectivity() const { return dc_; }

 private:
  /// Moves one honest node between histogram buckets (kNoBucket = none).
  static constexpr std::size_t kNoBucket = ~std::size_t{0};
  void shift_histogram(std::size_t from, std::size_t to);

  const core::OverlayNetwork& net_;
  graph::Graph& graph_;

  // Exact per-mutation counters. Honest alive nodes and honest-honest
  // edges are exactly dc_'s vertices and edges, so dc_ owns those counts.
  std::uint64_t sybil_alive_ = 0;
  std::uint64_t degree_sum_ = 0;  // honest nodes, all incident edges
  std::vector<std::uint32_t> histogram_;  // trimmed: no trailing zeros

  // Fully-dynamic honest-subgraph connectivity.
  graph::DynamicConnectivity dc_;
  // Honest alive slots as a rank/select bitmap (engine victim draws).
  OrderStatSet honest_set_;

  // Every mutation since attach must have been observed: fill() asserts
  // graph_.mutation_epoch() == base_epoch_ + events_seen_.
  std::uint64_t base_epoch_ = 0;
  std::uint64_t events_seen_ = 0;
};

}  // namespace onion::scenario
