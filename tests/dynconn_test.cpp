// DynamicConnectivity tests: exact component tracking under arbitrary
// add/delete interleavings. Unit cases pin the replacement-search edge
// cases (bridges, cycles, two-clique necks, vertex retirement order);
// the adversarial suite drives the worst case for replacement-edge
// search (cutting a long path bridge by bridge); the property sweep
// differential-tests 12 seeds of randomized operations against a
// from-scratch union-find reference; the lockstep suite drives the
// contiguous neighbour runs and a verbatim copy of the linked half-edge
// store they replaced through the same operations and requires equal
// search work after every one; the slab suite bounds the runs' storage
// under long churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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
// Reference store: the linked half-edge adjacency that the contiguous
// neighbour runs replaced, kept verbatim (class renamed, comments
// trimmed, lines rewrapped). Its replacement searches define the visit
// order the runs must reproduce, and with it every search_steps /
// splits / merges count that perfbench pins.
// ====================================================================

class LinkedDynamicConnectivity {
 public:
  explicit LinkedDynamicConnectivity(std::size_t capacity = 0) {
    ensure_capacity(capacity);
  }
  void ensure_capacity(std::size_t capacity);
  void insert_vertex(NodeId u);
  void remove_vertex(NodeId u);
  void bulk_load(const Graph& g, const std::vector<std::uint8_t>& track);
  void insert_edge(NodeId u, NodeId v);
  void remove_edge(NodeId u, NodeId v);

  std::size_t capacity() const { return label_.size(); }
  bool tracked(NodeId u) const {
    return u < label_.size() && label_[u] != kNil;
  }
  std::size_t degree(NodeId u) const {
    ONION_EXPECTS(tracked(u));
    return degree_[u];
  }
  std::uint64_t num_vertices() const { return num_vertices_; }
  std::uint64_t num_edges() const { return num_edges_; }
  std::uint64_t components() const { return components_; }
  std::uint64_t largest_component() const {
    return size_counts_.empty() ? 0 : size_counts_.rbegin()->first;
  }
  std::uint64_t component_size(NodeId u) const {
    ONION_EXPECTS(tracked(u));
    return comp_size_[label_[u]];
  }
  std::uint64_t merges() const { return merges_; }
  std::uint64_t splits() const { return splits_; }
  std::uint64_t search_steps() const { return search_steps_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  std::uint32_t alloc_component();
  void free_component(std::uint32_t c);
  void add_size(std::uint32_t s);
  void drop_size(std::uint32_t s);
  void link_pair(std::uint32_t h, NodeId u, NodeId v);
  std::uint32_t detach_half(NodeId u, NodeId v);
  void split_component(const std::vector<NodeId>& members,
                       std::uint32_t old_comp);
  bool expand(std::vector<NodeId>& queue, std::size_t& head,
              std::uint8_t side);

  std::vector<std::uint32_t> label_;
  std::vector<std::uint32_t> degree_;
  std::vector<std::uint32_t> head_half_;
  std::vector<std::uint32_t> member_next_;
  std::vector<std::uint32_t> member_prev_;
  std::vector<std::uint32_t> visit_mark_;
  std::vector<std::uint8_t> visit_side_;
  std::vector<std::uint32_t> half_to_;
  std::vector<std::uint32_t> half_next_;
  std::vector<std::uint32_t> free_pairs_;
  std::vector<std::uint32_t> comp_size_;
  std::vector<std::uint32_t> comp_head_;
  std::vector<std::uint32_t> comp_free_;
  std::map<std::uint32_t, std::uint32_t> size_counts_;
  std::uint64_t num_vertices_ = 0;
  std::uint64_t num_edges_ = 0;
  std::uint64_t components_ = 0;
  std::uint64_t merges_ = 0;
  std::uint64_t splits_ = 0;
  std::uint64_t search_steps_ = 0;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> queue_a_;
  std::vector<NodeId> queue_b_;
};

void LinkedDynamicConnectivity::ensure_capacity(std::size_t capacity) {
  if (capacity <= label_.size()) return;
  label_.resize(capacity, kNil);
  degree_.resize(capacity, 0);
  head_half_.resize(capacity, kNil);
  member_next_.resize(capacity, kNil);
  member_prev_.resize(capacity, kNil);
  visit_mark_.resize(capacity, 0);
  visit_side_.resize(capacity, 0);
}

std::uint32_t LinkedDynamicConnectivity::alloc_component() {
  if (!comp_free_.empty()) {
    const std::uint32_t c = comp_free_.back();
    comp_free_.pop_back();
    return c;
  }
  const std::uint32_t c = static_cast<std::uint32_t>(comp_size_.size());
  comp_size_.push_back(0);
  comp_head_.push_back(kNil);
  return c;
}

void LinkedDynamicConnectivity::free_component(std::uint32_t c) {
  comp_size_[c] = 0;
  comp_head_[c] = kNil;
  comp_free_.push_back(c);
}

void LinkedDynamicConnectivity::add_size(std::uint32_t s) {
  ++size_counts_[s];
}

void LinkedDynamicConnectivity::drop_size(std::uint32_t s) {
  const auto it = size_counts_.find(s);
  ONION_ENSURES(it != size_counts_.end() && it->second > 0);
  if (--it->second == 0) size_counts_.erase(it);
}

void LinkedDynamicConnectivity::insert_vertex(NodeId u) {
  ONION_EXPECTS_MSG(u < label_.size() && label_[u] == kNil,
                    "u=" << u << " capacity=" << label_.size());
  const std::uint32_t c = alloc_component();
  comp_size_[c] = 1;
  comp_head_[c] = u;
  label_[u] = c;
  degree_[u] = 0;
  head_half_[u] = kNil;
  member_next_[u] = u;
  member_prev_[u] = u;
  ++num_vertices_;
  ++components_;
  add_size(1);
}

void LinkedDynamicConnectivity::remove_vertex(NodeId u) {
  ONION_EXPECTS(tracked(u));
  ONION_EXPECTS_MSG(degree_[u] == 0,
                    "u=" << u << " still has degree " << degree_[u]);
  const std::uint32_t c = label_[u];
  // Removing u's last edge already split it into a singleton (the u-side
  // frontier of the replacement search cannot expand), so the component
  // record is exactly {u}.
  ONION_ENSURES(comp_size_[c] == 1 && comp_head_[c] == u);
  drop_size(1);
  free_component(c);
  label_[u] = kNil;
  --components_;
  --num_vertices_;
}

void LinkedDynamicConnectivity::link_pair(std::uint32_t h, NodeId u,
                                          NodeId v) {
  half_to_[h] = v;
  half_next_[h] = head_half_[u];
  head_half_[u] = h;
  half_to_[h + 1] = u;
  half_next_[h + 1] = head_half_[v];
  head_half_[v] = h + 1;
  ++degree_[u];
  ++degree_[v];
  ++num_edges_;
}

void LinkedDynamicConnectivity::bulk_load(
    const Graph& g, const std::vector<std::uint8_t>& track) {
  ONION_EXPECTS(num_vertices_ == 0 && half_to_.empty() &&
                comp_size_.empty() && track.size() <= g.capacity());
  ensure_capacity(g.capacity());
  // Tracked but not yet labelled; never a component id (ids < capacity).
  constexpr std::uint32_t kUnlabelled = kNil - 1;
  const auto tracked_slot = [&track](NodeId v) {
    return v < track.size() && track[v] != 0;
  };
  std::size_t pairs = 0;
  for (NodeId u = 0; u < track.size(); ++u) {
    if (track[u] == 0) continue;
    ONION_EXPECTS_MSG(g.alive(u), "tracked slot " << u << " is dead");
    label_[u] = kUnlabelled;
    ++num_vertices_;
    for (const NodeId v : g.neighbors(u))
      if (v > u && tracked_slot(v)) ++pairs;
  }

  // Pair 2e for the e-th edge, linked at the list heads: the pool the
  // incremental build lays out. Union-find over the graph's contiguous
  // adjacency settles the components; chasing the scattered half-edge
  // lists instead costs several times more. The incremental build grew
  // the pool by doubling; reserving the capacity it reached keeps the
  // first regrowth (a copy of the whole pool) where it was, instead of
  // at the first insert after the load.
  half_to_.reserve(std::bit_ceil(2 * pairs));
  half_next_.reserve(std::bit_ceil(2 * pairs));
  half_to_.resize(2 * pairs);
  half_next_.resize(2 * pairs);
  UnionFind uf(track.size());
  std::uint32_t h = 0;
  for (NodeId u = 0; u < track.size(); ++u) {
    if (track[u] == 0) continue;
    for (const NodeId v : g.neighbors(u))
      if (v > u && tracked_slot(v)) {
        link_pair(h, u, v);
        h += 2;
        uf.unite(u, v);
      }
  }

  // Label by root; each roster lists its members in ascending order. A
  // root gets its component id when its first member is seen, which may
  // be before the root's own turn.
  for (NodeId u = 0; u < track.size(); ++u) {
    if (track[u] == 0) continue;
    const auto root = static_cast<NodeId>(uf.find(u));
    if (label_[root] == kUnlabelled) label_[root] = alloc_component();
    const std::uint32_t c = label_[root];
    label_[u] = c;
    ++comp_size_[c];
    if (comp_size_[c] == 1) {
      comp_head_[c] = u;
      member_next_[u] = u;
      member_prev_[u] = u;
      continue;
    }
    const std::uint32_t head = comp_head_[c];
    const std::uint32_t tail = member_prev_[head];
    member_next_[tail] = u;
    member_prev_[u] = tail;
    member_next_[u] = head;
    member_prev_[head] = u;
  }
  for (const std::uint32_t size : comp_size_) add_size(size);
  components_ = comp_size_.size();
  // Each incremental merge joins two components into one.
  merges_ = num_vertices_ - components_;
}

void LinkedDynamicConnectivity::insert_edge(NodeId u, NodeId v) {
  ONION_EXPECTS_MSG(tracked(u) && tracked(v) && u != v,
                    "u=" << u << " v=" << v);
  // Carve a twin pair out of the pool (h even, twin = h|1).
  std::uint32_t h;
  if (!free_pairs_.empty()) {
    h = free_pairs_.back();
    free_pairs_.pop_back();
  } else {
    h = static_cast<std::uint32_t>(half_to_.size());
    half_to_.resize(h + 2);
    half_next_.resize(h + 2);
  }
  link_pair(h, u, v);

  std::uint32_t big = label_[u];
  std::uint32_t small = label_[v];
  if (big == small) return;  // closed a cycle — components unchanged
  if (comp_size_[big] < comp_size_[small]) std::swap(big, small);

  // Weighted union: relabel the smaller roster, then splice the two
  // circular member lists in O(1).
  const std::uint32_t start = comp_head_[small];
  std::uint32_t m = start;
  do {
    label_[m] = big;
    m = member_next_[m];
  } while (m != start);
  const std::uint32_t a = comp_head_[big];
  const std::uint32_t an = member_next_[a];
  const std::uint32_t bn = member_next_[start];
  member_next_[a] = bn;
  member_prev_[bn] = a;
  member_next_[start] = an;
  member_prev_[an] = start;

  drop_size(comp_size_[big]);
  drop_size(comp_size_[small]);
  comp_size_[big] += comp_size_[small];
  add_size(comp_size_[big]);
  free_component(small);
  --components_;
  ++merges_;
}

std::uint32_t LinkedDynamicConnectivity::detach_half(NodeId u, NodeId v) {
  std::uint32_t prev = kNil;
  for (std::uint32_t h = head_half_[u]; h != kNil;
       prev = h, h = half_next_[h]) {
    if (half_to_[h] != v) continue;
    if (prev == kNil)
      head_half_[u] = half_next_[h];
    else
      half_next_[prev] = half_next_[h];
    return h;
  }
  ONION_ENSURES_MSG(false, "edge " << u << "-" << v << " not present");
  return kNil;  // unreachable
}

bool LinkedDynamicConnectivity::expand(std::vector<NodeId>& queue,
                                       std::size_t& head, std::uint8_t side) {
  const NodeId x = queue[head++];
  ++search_steps_;
  for (std::uint32_t h = head_half_[x]; h != kNil; h = half_next_[h]) {
    const NodeId w = half_to_[h];
    if (visit_mark_[w] == epoch_) {
      if (visit_side_[w] != side) return true;  // frontiers met
      continue;
    }
    visit_mark_[w] = epoch_;
    visit_side_[w] = side;
    queue.push_back(w);
  }
  return false;
}

void LinkedDynamicConnectivity::split_component(
    const std::vector<NodeId>& members, std::uint32_t old_comp) {
  const std::uint32_t moved = static_cast<std::uint32_t>(members.size());
  const std::uint32_t old_total = comp_size_[old_comp];
  // The other frontier's seed is never claimed by the exhausted side, so
  // at least one member stays behind.
  ONION_ENSURES(moved < old_total);

  // Unlink the moved members from the old circular roster. A member's
  // next/prev pointers are repaired by earlier unlinks, so they always
  // reference nodes still on the list; the head pointer chases forward
  // until it settles on a survivor.
  for (const NodeId m : members) {
    const std::uint32_t n = member_next_[m];
    const std::uint32_t p = member_prev_[m];
    member_next_[p] = n;
    member_prev_[n] = p;
    if (comp_head_[old_comp] == m) comp_head_[old_comp] = n;
  }

  const std::uint32_t c = alloc_component();
  const std::size_t k = members.size();
  for (std::size_t i = 0; i < k; ++i) {
    const NodeId m = members[i];
    label_[m] = c;
    member_next_[m] = members[i + 1 == k ? 0 : i + 1];
    member_prev_[m] = members[i == 0 ? k - 1 : i - 1];
  }
  comp_head_[c] = members[0];
  comp_size_[c] = moved;
  comp_size_[old_comp] = old_total - moved;

  drop_size(old_total);
  add_size(moved);
  add_size(old_total - moved);
  ++components_;
  ++splits_;
}

void LinkedDynamicConnectivity::remove_edge(NodeId u, NodeId v) {
  ONION_EXPECTS_MSG(tracked(u) && tracked(v) && u != v,
                    "u=" << u << " v=" << v);
  const std::uint32_t hu = detach_half(u, v);
  const std::uint32_t hv = detach_half(v, u);
  ONION_ENSURES((hu ^ 1u) == hv);
  free_pairs_.push_back(hu & ~1u);
  --degree_[u];
  --degree_[v];
  --num_edges_;

  // Replacement-path search: alternate one-vertex BFS expansions from
  // both endpoints. Meeting ⇒ the edge was cycle-covered, nothing to do;
  // one side exhausting ⇒ it was a bridge and the exhausted (smaller, to
  // within one alternation) side becomes a new component.
  if (++epoch_ == 0) {  // epoch wrapped: invalidate stale marks
    std::fill(visit_mark_.begin(), visit_mark_.end(), 0u);
    epoch_ = 1;
  }
  queue_a_.clear();
  queue_b_.clear();
  queue_a_.push_back(u);
  visit_mark_[u] = epoch_;
  visit_side_[u] = 0;
  queue_b_.push_back(v);
  visit_mark_[v] = epoch_;
  visit_side_[v] = 1;
  std::size_t head_a = 0;
  std::size_t head_b = 0;
  while (true) {
    if (head_a == queue_a_.size()) {
      split_component(queue_a_, label_[u]);
      return;
    }
    if (expand(queue_a_, head_a, 0)) return;
    if (head_b == queue_b_.size()) {
      split_component(queue_b_, label_[v]);
      return;
    }
    if (expand(queue_b_, head_b, 1)) return;
  }
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

    // Same mutations into both: identical search work proves every
    // neighbour run holds the same neighbours in the same order.
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

// ====================================================================
// Lockstep: contiguous runs vs the linked half-edge reference
// ====================================================================

/// Both stores fed the same operations. After every one, the search
/// work (the visit order's fingerprint), the component counters and
/// every slot's degree and component size must agree.
struct Lockstep {
  explicit Lockstep(std::size_t capacity) : runs(capacity), linked(capacity) {}

  DynamicConnectivity runs;
  LinkedDynamicConnectivity linked;
  std::vector<std::pair<NodeId, NodeId>> edges;  // live, (min, max)

  bool has_edge(NodeId u, NodeId v) const {
    return std::find(edges.begin(), edges.end(),
                     std::make_pair(std::min(u, v), std::max(u, v))) !=
           edges.end();
  }
  void insert_vertex(NodeId u) {
    runs.insert_vertex(u);
    linked.insert_vertex(u);
    expect_same();
  }
  /// Inserts {u,v} unless it is a loop, present, or touches an
  /// untracked slot; returns whether it did.
  bool insert_edge(NodeId u, NodeId v) {
    if (u == v || !runs.tracked(u) || !runs.tracked(v) || has_edge(u, v))
      return false;
    runs.insert_edge(u, v);
    linked.insert_edge(u, v);
    edges.emplace_back(std::min(u, v), std::max(u, v));
    expect_same();
    return true;
  }
  void remove_edge_at(std::size_t e) {
    const auto [u, v] = edges[e];
    edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(e));
    runs.remove_edge(u, v);
    linked.remove_edge(u, v);
    expect_same();
  }
  void remove_edge(NodeId u, NodeId v) {
    const auto it = std::find(edges.begin(), edges.end(),
                              std::make_pair(std::min(u, v), std::max(u, v)));
    ASSERT_NE(it, edges.end());
    remove_edge_at(static_cast<std::size_t>(it - edges.begin()));
  }
  /// Removes u's edges (newest first), then u.
  void retire(NodeId u) {
    for (std::size_t e = edges.size(); e-- > 0;)
      if (edges[e].first == u || edges[e].second == u) remove_edge_at(e);
    runs.remove_vertex(u);
    linked.remove_vertex(u);
    expect_same();
  }
  void expect_same() const {
    ASSERT_EQ(runs.search_steps(), linked.search_steps());
    ASSERT_EQ(runs.splits(), linked.splits());
    ASSERT_EQ(runs.merges(), linked.merges());
    ASSERT_EQ(runs.components(), linked.components());
    ASSERT_EQ(runs.largest_component(), linked.largest_component());
    ASSERT_EQ(runs.num_vertices(), linked.num_vertices());
    ASSERT_EQ(runs.num_edges(), linked.num_edges());
    for (NodeId u = 0; u < runs.capacity(); ++u) {
      ASSERT_EQ(runs.tracked(u), linked.tracked(u)) << "slot " << u;
      if (!runs.tracked(u)) continue;
      ASSERT_EQ(runs.degree(u), linked.degree(u)) << "slot " << u;
      ASSERT_EQ(runs.component_size(u), linked.component_size(u))
          << "slot " << u;
    }
  }
};

std::vector<NodeId> tracked_slots(const DynamicConnectivity& dc) {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < dc.capacity(); ++u)
    if (dc.tracked(u)) out.push_back(u);
  return out;
}

/// One randomized op of the lockstep mix. Composite ops check after
/// each primitive step (Lockstep's mutators do), so a divergence is
/// caught at the step that caused it.
void lockstep_op(Lockstep& s, Rng& rng, std::size_t capacity) {
  const std::vector<NodeId> live = tracked_slots(s.runs);
  const auto pick = [&] { return live[rng.uniform(live.size())]; };
  const std::uint64_t kind = rng.uniform(100);
  if (live.size() < 4 || kind < 8) {  // insert a vertex into a free slot
    const NodeId u = static_cast<NodeId>(rng.uniform(capacity));
    if (!s.runs.tracked(u)) s.insert_vertex(u);
  } else if (kind < 40) {  // insert a random edge
    s.insert_edge(pick(), pick());
  } else if (kind < 65) {  // remove a random edge
    if (!s.edges.empty()) s.remove_edge_at(rng.uniform(s.edges.size()));
  } else if (kind < 75) {
    // Clique burst, DDSR repair style: take a vertex's neighbours,
    // close them into a clique, retire the vertex, then prune back
    // the newest clique edges. Members' runs climb several capacity
    // classes, then shrink in place.
    const NodeId x = pick();
    std::vector<NodeId> members;
    for (const auto& [a, b] : s.edges)
      if (a == x || b == x) members.push_back(a == x ? b : a);
    for (std::size_t extra = 4 + rng.uniform(8); extra-- > 0;)
      members.push_back(pick());
    std::vector<std::pair<NodeId, NodeId>> added;
    for (std::size_t i = 0; i < members.size(); ++i)
      for (std::size_t j = i + 1; j < members.size(); ++j)
        if (s.insert_edge(members[i], members[j]))
          added.emplace_back(members[i], members[j]);
    ASSERT_NO_FATAL_FAILURE(s.retire(x));
    for (std::size_t k = added.size(); k-- > added.size() / 3;) {
      if (added[k].first == x || added[k].second == x) continue;
      ASSERT_NO_FATAL_FAILURE(s.remove_edge(added[k].first, added[k].second));
    }
  } else if (kind < 85) {
    // Remove-then-reinsert the same slot: its released run must be
    // reusable, and the fresh vertex rebuilds from an empty run.
    const NodeId u = pick();
    ASSERT_NO_FATAL_FAILURE(s.retire(u));
    s.insert_vertex(u);
    for (std::size_t k = 1 + rng.uniform(10); k-- > 0;)
      s.insert_edge(u, pick());
  } else if (kind < 92) {
    // Adversarial bridge cascade: detach a few vertices, chain them to
    // each other and to one anchor, then cut the chain from the anchor
    // outward; every cut is a bridge and splits a component.
    std::vector<NodeId> chain;
    for (std::size_t k = 3 + rng.uniform(10); k-- > 0;) {
      const NodeId u = pick();
      if (std::find(chain.begin(), chain.end(), u) == chain.end())
        chain.push_back(u);
    }
    const NodeId anchor = chain.front();
    for (std::size_t i = 1; i < chain.size(); ++i) {
      ASSERT_NO_FATAL_FAILURE(s.retire(chain[i]));
      s.insert_vertex(chain[i]);
    }
    for (std::size_t i = 1; i < chain.size(); ++i)
      ASSERT_TRUE(s.insert_edge(chain[i - 1], chain[i]));
    const std::uint64_t splits = s.runs.splits();
    for (std::size_t i = 1; i < chain.size(); ++i)
      ASSERT_NO_FATAL_FAILURE(s.remove_edge(chain[i - 1], chain[i]));
    ASSERT_EQ(s.runs.splits() - splits, chain.size() - 1)
        << "anchor " << anchor;
  } else {  // retire a vertex for good
    ASSERT_NO_FATAL_FAILURE(s.retire(pick()));
  }
}

TEST(DynConnLockstep, RunsMatchLinkedHalfEdgesAcrossSeeds) {
  constexpr std::size_t kCap = 96;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Lockstep s(kCap);
    if (seed % 2 == 0) {
      // Bulk load a churned graph into both stores, then churn.
      const Graph g = churned_graph(kCap, 5.0 / kCap, rng);
      std::vector<std::uint8_t> track(kCap, 0);
      for (NodeId u = 0; u < kCap; ++u)
        track[u] = g.alive(u) && rng.uniform(6) != 0 ? 1 : 0;
      s.runs.bulk_load(g, track);
      s.linked.bulk_load(g, track);
      for (NodeId u = 0; u < kCap; ++u)
        if (track[u] != 0)
          for (const NodeId v : g.neighbors(u))
            if (v > u && track[v] != 0) s.edges.emplace_back(u, v);
      ASSERT_NO_FATAL_FAILURE(s.expect_same());
    } else {
      for (NodeId u = 0; u < kCap; u += 2) s.insert_vertex(u);
    }
    for (int op = 0; op < 600; ++op)
      ASSERT_NO_FATAL_FAILURE(lockstep_op(s, rng, kCap)) << "op " << op;
    EXPECT_GT(s.runs.splits(), 0u);
    EXPECT_GT(s.runs.search_steps(), 1000u);
  }
}

// ====================================================================
// Slab storage under churn
// ====================================================================

TEST(DynConnSlab, ChurnAtFixedEdgeCountReusesRuns) {
  // Each slot holds at most one run per capacity class at a time, and
  // the slab only grows when a class's free list is empty, so with no
  // bulk load the slab never exceeds kN · (2^kMinClass + … + 2^K) <
  // kN · 2 · 2^K, where 2^K is the largest class any run reached. A
  // store that leaked relocated or released runs would pass that bound
  // within the first few thousand ops.
  constexpr std::size_t kN = 48;
  constexpr std::size_t kEdges = 120;
  Rng rng(17);
  DynamicConnectivity dc(kN);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < kN; ++u) dc.insert_vertex(u);
  const auto present = [&](NodeId u, NodeId v) {
    return std::find(edges.begin(), edges.end(),
                     std::make_pair(std::min(u, v), std::max(u, v))) !=
           edges.end();
  };
  const auto add = [&](NodeId u, NodeId v) {
    if (u == v || !dc.tracked(u) || !dc.tracked(v) || present(u, v))
      return false;
    dc.insert_edge(u, v);
    edges.emplace_back(std::min(u, v), std::max(u, v));
    return true;
  };
  const auto drop = [&](std::size_t e) {
    dc.remove_edge(edges[e].first, edges[e].second);
    edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(e));
  };
  const auto node = [&] { return static_cast<NodeId>(rng.uniform(kN)); };
  // Tops the edge count back up to kEdges with random edges.
  const auto refill = [&](NodeId prefer) {
    while (edges.size() < kEdges)
      add(rng.uniform(2) == 0 ? prefer : node(), node());
  };
  refill(0);

  std::size_t max_degree = 0;
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t kind = rng.uniform(10);
    if (kind < 5) {  // move one edge
      drop(rng.uniform(edges.size()));
      refill(node());
    } else if (kind < 8) {
      // Grow one hub through several classes, then shrink it back.
      const NodeId hub = node();
      for (std::size_t k = 4 + rng.uniform(28); k-- > 0;)
        if (add(hub, node())) {
          std::size_t e;
          do e = rng.uniform(edges.size());
          while (edges[e].first == hub || edges[e].second == hub);
          drop(e);
        }
      max_degree = std::max(max_degree, dc.degree(hub));
      for (std::size_t e = edges.size(); e-- > 0;)
        if (edges[e].first == hub || edges[e].second == hub) drop(e);
      refill(node());
    } else {  // retire and reinsert a slot: its run is released
      const NodeId u = node();
      for (std::size_t e = edges.size(); e-- > 0;)
        if (edges[e].first == u || edges[e].second == u) drop(e);
      dc.remove_vertex(u);
      dc.insert_vertex(u);
      refill(u);
    }
    ASSERT_EQ(edges.size(), kEdges);
    for (NodeId u = 0; u < kN; ++u)
      max_degree = std::max(max_degree, dc.degree(u));
    const std::size_t top_class = std::max<std::size_t>(
        4, std::bit_ceil(max_degree));
    ASSERT_LT(dc.slab_size(), kN * 2 * top_class) << "op " << op;
  }
  EXPECT_GE(max_degree, 20u);  // runs reached class 32
}

}  // namespace
}  // namespace onion::graph
