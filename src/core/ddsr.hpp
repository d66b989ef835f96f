// The Dynamic Distributed Self-Repairing (DDSR) graph — the paper's core
// overlay construction (Section IV-C). Built on Neighbors-of-Neighbor
// (NoN) knowledge: every node knows its neighbors' neighbors, so when a
// node dies its former neighbors can stitch the hole closed without any
// global view.
//
//   Repairing:  when u is deleted, each pair of u's former neighbors
//               (uj, uk) forms an edge iff it does not already exist.
//   Pruning:    a node above dmax drops its highest-degree neighbor
//               (ties random) until back in range — keeping degree, and
//               therefore exposure, low.
//   Refilling:  a node below dmin acquires replacements from its NoN set
//               (never globally: bots only know two hops out).
//
// This graph-level engine drives the Figure 4/5/6 sweeps; the full
// bot-over-Tor stack (core/botnet.hpp) executes the same policies through
// real peer messages.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace onion::core {

/// Repair-policy knobs; defaults follow the paper. Alternatives exist for
/// the ablation benches called out in DESIGN.md §4.
struct DdsrPolicy {
  /// Degree band [dmin, dmax] the maintenance keeps nodes inside.
  std::size_t dmin = 5;
  std::size_t dmax = 5;

  /// Pruning on/off — the Figure 4 with/without-pruning comparison.
  bool prune = true;

  /// NoN refill of nodes that fell below dmin.
  bool refill = true;

  /// Which neighbor a pruning node evicts.
  enum class Victim {
    HighestDegree,  // the paper's rule: preserves reachability
    Random,         // ablation
  };
  Victim victim = Victim::HighestDegree;

  /// How a dead node's former neighbors reconnect.
  enum class Repair {
    PairwiseFull,  // the paper's rule: clique over former neighbors
    RandomMatch,   // ablation: shuffled pairing, half the edges
  };
  Repair repair = Repair::PairwiseFull;
};

/// The eviction rule shared by pruning (true degree) and the bot-level
/// peering policy (declared degree, core/overlay.hpp): the peer with the
/// highest positive `key`, ties broken uniformly by a reservoir walk that
/// draws rng.uniform(ties) once per tie. kInvalidNode when no peer has a
/// positive key.
template <class Key>
graph::NodeId highest_peer(const std::vector<graph::NodeId>& peers, Key key,
                           Rng& rng) {
  graph::NodeId best = graph::kInvalidNode;
  std::size_t best_key = 0;
  std::size_t ties = 0;
  for (const graph::NodeId p : peers) {
    const std::size_t k = key(p);
    if (k > best_key) {
      best_key = k;
      best = p;
      ties = 1;
    } else if (k == best_key && k > 0) {
      ++ties;
      if (rng.uniform(ties) == 0) best = p;
    }
  }
  return best;
}

/// NoN refill candidates of `u`: its neighbors' neighbors that are not
/// `u` and not already adjacent to it, deduplicated, in first-seen order
/// (bots only know two hops out, so refill never looks further).
/// `mark` is caller-owned scratch indexed by node slot, all zero between
/// calls: the scan marks `u` and its neighbors, keeps each unmarked NoN
/// and marks it, then unmarks exactly what it marked, so a scan costs
/// O(deg²) with no adjacency test. It grows to g.capacity() if shorter.
std::vector<graph::NodeId> non_candidates(const graph::Graph& g,
                                          graph::NodeId u,
                                          std::vector<std::uint8_t>& mark);

/// Counters describing maintenance work done so far.
struct DdsrStats {
  std::uint64_t nodes_removed = 0;
  std::uint64_t repair_edges_added = 0;
  std::uint64_t prune_edges_removed = 0;
  std::uint64_t refill_edges_added = 0;
  /// Repair/refill requests a connector (below) refused — nonzero only
  /// under defense-consistent healing, where PoW/rate limits can turn
  /// an edge the graph-level protocol would have created into a denial.
  std::uint64_t heal_requests_denied = 0;

  /// Peer messages implied by the counters: each repair, prune, or
  /// refill edge operation is one request/acknowledge exchange in the
  /// bot-level protocol (core/botnet.hpp). Campaign snapshots report
  /// this as the overlay's self-healing traffic cost.
  std::uint64_t maintenance_messages() const {
    return repair_edges_added + prune_edges_removed + refill_edges_added;
  }
};

/// Applies DDSR maintenance to a Graph as nodes are removed. The engine
/// borrows the graph; the caller keeps ownership and may inspect it
/// between operations.
class DdsrEngine {
 public:
  DdsrEngine(graph::Graph& g, DdsrPolicy policy, Rng& rng)
      : graph_(g), policy_(policy), rng_(rng) {}

  /// Removes `u` and runs repair/prune/refill on its former neighborhood
  /// (the gradual-takedown model: one deletion, then the network heals).
  void remove_node(graph::NodeId u);

  /// Removes `u` with no healing (the "Normal" baseline of Figure 5, and
  /// the simultaneous-takedown model of Figure 6).
  void remove_node_no_repair(graph::NodeId u);

  /// How repair and refill edges come into being. Default (none):
  /// direct graph mutation — NoN peers are pre-acquainted, so healing
  /// is free. A connector interposes a peering policy: it is handed the
  /// two endpoints, returns whether the edge now exists, and owns any
  /// side effects (PoW charges, rate-limit denials, evictions). The
  /// scenario engine wires this to OverlayNetwork::request_peering for
  /// defense-consistent ablations. Pruning stays direct either way —
  /// dropping a peer ("Forgetting") is not a request anyone can refuse.
  using Connector = std::function<bool(graph::NodeId, graph::NodeId)>;
  void set_connector(Connector connect) { connect_ = std::move(connect); }

  const DdsrStats& stats() const { return stats_; }
  const DdsrPolicy& policy() const { return policy_; }

 private:
  void prune_node(graph::NodeId v, std::vector<graph::NodeId>& lost_edge);
  void refill_node(graph::NodeId v);
  void repair_clique(const std::vector<graph::NodeId>& former);
  /// Adds the edge directly or through the connector; updates `counter`
  /// on success, heal_requests_denied on refusal.
  bool connect_edge(graph::NodeId a, graph::NodeId b,
                    std::uint64_t& counter);

  graph::Graph& graph_;
  DdsrPolicy policy_;
  Rng& rng_;
  DdsrStats stats_;
  Connector connect_;  // empty = direct graph mutation
  /// Scratch adjacency bitmap for repair_clique and the NoN scan, kept
  /// across calls (all zero between them) so the unpruned Figure-4 runs
  /// (degrees in the thousands) pay O(1) per membership test instead of
  /// an O(deg) adjacency scan.
  std::vector<std::uint8_t> adjacent_;
};

}  // namespace onion::core
