#include "graph/dynamic_connectivity.hpp"

#include <algorithm>
#include <bit>

#include "graph/union_find.hpp"

namespace onion::graph {

void DynamicConnectivity::ensure_capacity(std::size_t capacity) {
  if (capacity <= label_.size()) return;
  label_.resize(capacity, kNil);
  slot_.resize(capacity);
  member_next_.resize(capacity, kNil);
  member_prev_.resize(capacity, kNil);
}

std::uint32_t DynamicConnectivity::alloc_component() {
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

void DynamicConnectivity::free_component(std::uint32_t c) {
  comp_size_[c] = 0;
  comp_head_[c] = kNil;
  comp_free_.push_back(c);
}

void DynamicConnectivity::add_size(std::uint32_t s) { ++size_counts_[s]; }

void DynamicConnectivity::drop_size(std::uint32_t s) {
  const auto it = size_counts_.find(s);
  ONION_ENSURES(it != size_counts_.end() && it->second > 0);
  if (--it->second == 0) size_counts_.erase(it);
}

void DynamicConnectivity::insert_vertex(NodeId u) {
  ONION_EXPECTS_MSG(u < label_.size() && label_[u] == kNil,
                    "u=" << u << " capacity=" << label_.size());
  const std::uint32_t c = alloc_component();
  comp_size_[c] = 1;
  comp_head_[c] = u;
  label_[u] = c;
  member_next_[u] = u;
  member_prev_[u] = u;
  ++num_vertices_;
  ++components_;
  add_size(1);
}

void DynamicConnectivity::remove_vertex(NodeId u) {
  ONION_EXPECTS(tracked(u));
  ONION_EXPECTS_MSG(slot_[u].len == 0,
                    "u=" << u << " still has degree " << slot_[u].len);
  const std::uint32_t c = label_[u];
  // Removing u's last edge already split it into a singleton (the u-side
  // frontier of the replacement search cannot expand), so the component
  // record is exactly {u}.
  ONION_ENSURES(comp_size_[c] == 1 && comp_head_[c] == u);
  drop_size(1);
  free_component(c);
  release_run(u);
  label_[u] = kNil;
  --components_;
  --num_vertices_;
}

void DynamicConnectivity::release_run(NodeId u) {
  Slot& s = slot_[u];
  if (s.cap == 0) return;
  // A run of capacity c serves class floor(log2 c); exact-fit runs below
  // the smallest class are never asked for again.
  const auto k = static_cast<unsigned>(std::bit_width(s.cap)) - 1;
  if (k >= kMinClass) free_runs_[k].push_back(s.off);
  s.off = 0;
  s.cap = 0;
}

void DynamicConnectivity::push_neighbor(NodeId u, NodeId v) {
  Slot& s = slot_[u];
  if (s.len == s.cap) {
    const unsigned k = std::max(
        kMinClass, static_cast<unsigned>(std::bit_width(s.cap)));
    ONION_ENSURES_MSG(k < free_runs_.size(), "u=" << u << " cap=" << s.cap);
    const std::uint32_t cap = std::uint32_t{1} << k;
    std::uint32_t off;
    if (!free_runs_[k].empty()) {
      off = free_runs_[k].back();
      free_runs_[k].pop_back();
    } else {
      ONION_ENSURES_MSG(slab_.size() + cap <= kNil, "slab full");
      off = static_cast<std::uint32_t>(slab_.size());
      slab_.resize(slab_.size() + cap);
    }
    std::copy_n(slab_.begin() + s.off, s.len, slab_.begin() + off);
    release_run(u);
    s.off = off;
    s.cap = cap;
  }
  slab_[s.off + s.len++] = v;
}

void DynamicConnectivity::bulk_load(const Graph& g,
                                    const std::vector<std::uint8_t>& track) {
  ONION_EXPECTS(num_vertices_ == 0 && slab_.empty() && comp_size_.empty() &&
                track.size() <= g.capacity());
  ensure_capacity(g.capacity());
  // Tracked but not yet labelled; never a component id (ids < capacity).
  constexpr std::uint32_t kUnlabelled = kNil - 1;
  const auto tracked_slot = [&track](NodeId v) {
    return v < track.size() && track[v] != 0;
  };
  // Counting pass: each tracked slot's run is exactly its tracked
  // degree, laid out in slot order.
  std::size_t total = 0;
  for (NodeId u = 0; u < track.size(); ++u) {
    if (track[u] == 0) continue;
    ONION_EXPECTS_MSG(g.alive(u), "tracked slot " << u << " is dead");
    label_[u] = kUnlabelled;
    ++num_vertices_;
    std::uint32_t degree = 0;
    for (const NodeId v : g.neighbors(u))
      if (tracked_slot(v)) ++degree;
    slot_[u].off = static_cast<std::uint32_t>(total);
    slot_[u].cap = degree;
    total += degree;
  }
  ONION_ENSURES_MSG(total < kNil, "slab of " << total << " entries");
  // Relocated runs go to the slab's end; reserving headroom (virtual
  // until touched) keeps the first relocations from copying the slab.
  // The floor keeps the block above 32 MiB, where glibc stops adapting
  // its mmap threshold: freeing a smaller mmapped block raises the
  // threshold to that block's size, and the process's later mid-size
  // allocations then stay on its heap (on the 50k replay-grid workload,
  // a 4 MB slab raised peak RSS from 40.5 to 43.0 MB that way).
  constexpr std::size_t kReserveFloor =
      (std::size_t{32} << 20) / sizeof(NodeId) + 1024;
  slab_.reserve(std::max(2 * total, kReserveFloor));
  slab_.resize(total);

  // The incremental build's insertion order, appended into exact-fit
  // runs. Union-find over the graph's contiguous adjacency settles the
  // components.
  UnionFind uf(track.size());
  for (NodeId u = 0; u < track.size(); ++u) {
    if (track[u] == 0) continue;
    for (const NodeId v : g.neighbors(u))
      if (v > u && tracked_slot(v)) {
        slab_[slot_[u].off + slot_[u].len++] = v;
        slab_[slot_[v].off + slot_[v].len++] = u;
        ++num_edges_;
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

void DynamicConnectivity::insert_edge(NodeId u, NodeId v) {
  ONION_EXPECTS_MSG(tracked(u) && tracked(v) && u != v,
                    "u=" << u << " v=" << v);
  push_neighbor(u, v);
  push_neighbor(v, u);
  ++num_edges_;

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

void DynamicConnectivity::erase_neighbor(NodeId u, NodeId v) {
  Slot& s = slot_[u];
  const auto run = slab_.begin() + s.off;
  const auto end = run + s.len;
  const auto it = std::find(run, end, v);
  ONION_ENSURES_MSG(it != end, "edge " << u << "-" << v << " not present");
  std::copy(it + 1, end, it);
  --s.len;
}

bool DynamicConnectivity::expand(std::vector<NodeId>& queue,
                                 std::size_t& head, std::uint32_t side) {
  const NodeId x = queue[head++];
  ++search_steps_;
  const std::uint32_t claimed = epoch_ << 1;
  const Slot& s = slot_[x];
  const NodeId* const run = slab_.data() + s.off;
  // Newest neighbour first: the run's back.
  for (std::uint32_t i = s.len; i-- > 0;) {
    const NodeId w = run[i];
    std::uint32_t& visit = slot_[w].visit;
    if ((visit & ~1u) == claimed) {
      if ((visit & 1u) != side) return true;  // frontiers met
      continue;
    }
    visit = claimed | side;
    queue.push_back(w);
  }
  return false;
}

void DynamicConnectivity::split_component(const std::vector<NodeId>& members,
                                          std::uint32_t old_comp) {
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

void DynamicConnectivity::remove_edge(NodeId u, NodeId v) {
  ONION_EXPECTS_MSG(tracked(u) && tracked(v) && u != v,
                    "u=" << u << " v=" << v);
  erase_neighbor(u, v);
  erase_neighbor(v, u);
  --num_edges_;

  // Replacement-path search: alternate one-vertex BFS expansions from
  // both endpoints. Meeting ⇒ the edge was cycle-covered, nothing to do;
  // one side exhausting ⇒ it was a bridge and the exhausted (smaller, to
  // within one alternation) side becomes a new component.
  if (++epoch_ == kEpochLimit) {  // epoch wrapped: invalidate stale marks
    for (Slot& s : slot_) s.visit = 0;
    epoch_ = 1;
  }
  queue_a_.clear();
  queue_b_.clear();
  queue_a_.push_back(u);
  slot_[u].visit = epoch_ << 1;
  queue_b_.push_back(v);
  slot_[v].visit = (epoch_ << 1) | 1u;
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

}  // namespace onion::graph
