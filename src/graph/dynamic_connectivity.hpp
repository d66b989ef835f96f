// Fully-dynamic connectivity over a subset of a graph's node slots:
// component count, every component's size, and the largest component are
// maintained exactly under arbitrary interleavings of vertex/edge
// insertions AND deletions — no global rebuild, ever.
//
// The algorithm is a spanning-structure-free variant of the replacement-
// edge search at the heart of Holm–de Lichtenberg–Thorup: every vertex
// carries a component label, merges relabel the smaller side (weighted
// union, so each vertex is relabeled O(log n) times across a growth
// phase), and an edge deletion runs a *bidirectional* breadth-first
// search from both endpoints over the live adjacency. If the frontiers
// meet, a replacement path exists and nothing changes; if one side
// exhausts first, exactly that side — which is the smaller reachable
// set, to within one alternation step — becomes a new component and is
// relabeled. The deletion cost is therefore O(meeting distance) when
// the edge is cycle-covered (the overwhelmingly common case in a
// degree-banded DDSR overlay, where clique repair keeps alternate paths
// two hops long) and O(smaller split side) when it is a bridge — the
// output-sensitive optimum, since the smaller side must be relabeled
// anyway. This is not the HDT polylog *worst case* (an adversarial
// bridge chain costs O(n) per cut; tests/dynconn_test.cpp drives
// exactly that sequence), but it is differential-tested against
// from-scratch union-find sweeps over randomized add/delete
// interleavings, which is the contract the scenario tracker needs.
//
// Memory layout is struct-of-arrays over node slots, and each vertex's
// neighbours sit in one contiguous run of a single flat slab (no
// per-vertex heap blocks), so a 500k–1M node overlay costs a handful of
// flat vectors instead of a million tiny allocations. A search step
// reads the expanded vertex's run from one or two cache lines, and each
// neighbour's visit check loads a 16-byte slot record that also holds
// that neighbour's run offset and length. A run keeps its newest
// neighbour last and is iterated back to front (newest first); a
// deletion erases in place without reordering the rest. That is the
// visit order of a LIFO adjacency list, so search work is independent
// of where runs sit in the slab.
// Determinism: no randomness, no unordered-container iteration —
// adjacency iterates in run order, component sizes live in an ordered
// std::map — so every derived quantity is a pure function of the
// operation sequence.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "common/check.hpp"
#include "graph/graph.hpp"

namespace onion::graph {

/// Deletion-tolerant incremental connectivity over tracked vertices.
/// Vertices are node-slot indices (graph::NodeId); the caller chooses
/// which slots participate (the scenario tracker feeds honest alive
/// bots only) and mirrors every mutation in, in order.
class DynamicConnectivity {
 public:
  /// `capacity` empty (untracked) slots.
  explicit DynamicConnectivity(std::size_t capacity = 0) {
    ensure_capacity(capacity);
  }

  /// Grows the slot table (new slots untracked). No-op if already big
  /// enough; never shrinks.
  void ensure_capacity(std::size_t capacity);

  /// Starts tracking slot `u` as a fresh singleton component.
  /// Precondition: u < capacity() and not tracked.
  void insert_vertex(NodeId u);

  /// Stops tracking `u`. Precondition: tracked and isolated (callers
  /// remove incident edges first — exactly the order in which
  /// graph::Graph::remove_node notifies an observer).
  void remove_vertex(NodeId u);

  /// Bulk load into a fresh structure: tracks every slot u of `g` with
  /// track[u] != 0 (each must be alive) and every edge of `g` between
  /// two tracked slots, with one O((n + m)·α) labelling pass. The result
  /// is the state the incremental build reaches — insert_vertex for each
  /// tracked slot, then insert_edge(u, v) for every edge by u ascending
  /// and neighbors(u) order with u < v — down to the run order: every
  /// vertex's neighbour run holds the same neighbours in the same order,
  /// so later replacement searches visit vertices in the same order.
  /// Runs are laid out exact-fit in slot order, in one allocation.
  /// merges() counts the merges that build would have made. Only
  /// component ids and run placement may differ; no query exposes
  /// component ids, and placement only shows in slab_size().
  /// Precondition: nothing was ever inserted.
  void bulk_load(const Graph& g, const std::vector<std::uint8_t>& track);

  /// Adds edge {u,v} between tracked vertices; merges their components
  /// if distinct (smaller side relabeled). Precondition: both tracked,
  /// u != v, edge not present.
  void insert_edge(NodeId u, NodeId v);

  /// Removes edge {u,v}; splits the component if {u,v} was a bridge
  /// (the smaller reachable side is relabeled). Precondition: the edge
  /// was inserted and not yet removed.
  void remove_edge(NodeId u, NodeId v);

  /// --- queries (all O(1) except same_component's two loads) ----------
  std::size_t capacity() const { return label_.size(); }
  bool tracked(NodeId u) const {
    return u < label_.size() && label_[u] != kNil;
  }
  /// Tracked-edge degree of a tracked vertex.
  std::size_t degree(NodeId u) const {
    ONION_EXPECTS(tracked(u));
    return slot_[u].len;
  }
  std::uint64_t num_vertices() const { return num_vertices_; }
  std::uint64_t num_edges() const { return num_edges_; }
  std::uint64_t components() const { return components_; }
  /// Size of the largest component (0 when no vertex is tracked).
  std::uint64_t largest_component() const {
    return size_counts_.empty() ? 0 : size_counts_.rbegin()->first;
  }
  std::uint64_t component_size(NodeId u) const {
    ONION_EXPECTS(tracked(u));
    return comp_size_[label_[u]];
  }
  bool same_component(NodeId u, NodeId v) const {
    ONION_EXPECTS(tracked(u) && tracked(v));
    return label_[u] == label_[v];
  }

  /// --- introspection (tests and benches) -----------------------------
  /// Component merges performed by insert_edge.
  std::uint64_t merges() const { return merges_; }
  /// Bridge deletions that split a component.
  std::uint64_t splits() const { return splits_; }
  /// Total vertices expanded by replacement-path searches — the real
  /// cost of all remove_edge calls so far (tests bound this; the bench
  /// reports it per deletion window).
  std::uint64_t search_steps() const { return search_steps_; }
  /// Slab entries ever laid out: live runs, their unused tails, and
  /// released runs waiting on a free list. Bounded under churn because
  /// released runs are reused by capacity class (tests assert it).
  std::size_t slab_size() const { return slab_.size(); }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  /// Smallest relocated run: 2^kMinClass neighbours.
  static constexpr unsigned kMinClass = 2;
  /// Epochs wrap here: the visit word stores epoch·2 + side in 32 bits.
  static constexpr std::uint32_t kEpochLimit = std::uint32_t{1} << 31;

  /// Per-slot record, 16 bytes: four share a cache line, and the visit
  /// check on a neighbour brings in that neighbour's run offset and
  /// length on the same line.
  struct Slot {
    std::uint32_t off = 0;    // first slab entry of the neighbour run
    std::uint32_t len = 0;    // tracked-edge degree (run entries in use)
    std::uint32_t cap = 0;    // run capacity; 0 = no run
    std::uint32_t visit = 0;  // BFS epoch·2 + side of the last claim
  };

  std::uint32_t alloc_component();
  void free_component(std::uint32_t c);
  void add_size(std::uint32_t s);
  void drop_size(std::uint32_t s);
  /// Appends v as u's newest neighbour, moving u's run to the next
  /// power-of-two capacity class first if it is full.
  void push_neighbor(NodeId u, NodeId v);
  /// Returns u's run to the free list of its capacity class.
  void release_run(NodeId u);
  /// Erases v from u's run, keeping the order of the rest.
  void erase_neighbor(NodeId u, NodeId v);
  /// Relabels `members` (the exhausted BFS side) into a fresh component
  /// split off from `old_comp`.
  void split_component(const std::vector<NodeId>& members,
                       std::uint32_t old_comp);
  /// One BFS expansion step; returns true when the other side was hit.
  bool expand(std::vector<NodeId>& queue, std::size_t& head,
              std::uint32_t side);

  // Slot tables (struct-of-arrays; index = NodeId).
  std::vector<std::uint32_t> label_;        // component id, kNil = untracked
  std::vector<Slot> slot_;                  // neighbour run + visit word
  std::vector<std::uint32_t> member_next_;  // circular component roster
  std::vector<std::uint32_t> member_prev_;

  // Neighbour runs. A released run of capacity c goes on
  // free_runs_[floor(log2 c)] and is handed to the next run that needs
  // that class; runs only ever grow to powers of two, so only
  // bulk_load's exact-fit runs lose their tail to the rounding.
  std::vector<NodeId> slab_;
  std::array<std::vector<std::uint32_t>, 32> free_runs_;

  // Component records (index = component id, free-listed).
  std::vector<std::uint32_t> comp_size_;
  std::vector<std::uint32_t> comp_head_;  // any member, kNil when free
  std::vector<std::uint32_t> comp_free_;

  /// size -> number of components of that size. Ordered map: largest()
  /// is rbegin, and iteration (none today) would be deterministic.
  std::map<std::uint32_t, std::uint32_t> size_counts_;

  std::uint64_t num_vertices_ = 0;
  std::uint64_t num_edges_ = 0;
  std::uint64_t components_ = 0;
  std::uint64_t merges_ = 0;
  std::uint64_t splits_ = 0;
  std::uint64_t search_steps_ = 0;
  std::uint32_t epoch_ = 0;

  // Replacement-search scratch, reused across remove_edge calls.
  std::vector<NodeId> queue_a_;
  std::vector<NodeId> queue_b_;
};

}  // namespace onion::graph
