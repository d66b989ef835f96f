// Order-statistics bitmap: a Fenwick (binary-indexed) tree over a
// membership bitset, supporting set/clear/test in O(log n) and select
// (k-th smallest member) in O(log n). The scenario engine uses one over
// the honest-alive slots so that picking a uniform victim at 500k nodes
// costs a tree walk instead of materializing the full ascending id
// vector — while drawing the *same* random index, so snapshot streams
// stay byte-identical to the vector-based code it replaces.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace onion {

/// Dynamic set of small integers with rank/select, backed by a Fenwick
/// tree of 0/1 counts. Indices are slot ids; grow-only capacity.
class OrderStatSet {
 public:
  explicit OrderStatSet(std::size_t capacity = 0) { ensure_size(capacity); }

  std::size_t capacity() const { return bits_.size(); }
  std::size_t count() const { return count_; }

  bool test(std::size_t i) const {
    return i < bits_.size() && bits_[i] != 0;
  }

  /// Grows capacity (new slots absent). Appended Fenwick nodes are
  /// rebuilt from prefix sums, so growth is valid mid-life, not just on
  /// an empty tree.
  void ensure_size(std::size_t capacity) {
    if (capacity <= bits_.size()) return;
    bits_.resize(capacity, 0);
    // tree_ is 1-indexed; node i covers (i - lowbit(i), i]. A new node's
    // span can reach back into old indices, so seed it with the prefix
    // difference (the new elements themselves contribute 0). No exact
    // reserve: push_back's geometric growth keeps one-slot grows (one
    // per joining bot) amortized O(1) instead of copying the tree.
    if (tree_.empty()) tree_.push_back(0);
    for (std::size_t i = tree_.size(); i <= capacity; ++i) {
      const std::size_t low = i & (~i + 1);
      tree_.push_back(prefix(i - 1) - prefix(i - low));
    }
  }

  void set(std::size_t i) {
    ONION_EXPECTS(i < bits_.size());
    if (bits_[i]) return;
    bits_[i] = 1;
    ++count_;
    update(i + 1, +1);
  }

  void clear(std::size_t i) {
    ONION_EXPECTS(i < bits_.size());
    if (!bits_[i]) return;
    bits_[i] = 0;
    --count_;
    update(i + 1, -1);
  }

  /// Index of the k-th member (0-based, ascending). Precondition:
  /// k < count(). Equivalent to sorted_members()[k] without building it.
  std::size_t select(std::size_t k) const {
    ONION_EXPECTS_MSG(k < count_, "k=" << k << " count=" << count_);
    std::size_t pos = 0;
    std::size_t remaining = k + 1;
    std::size_t step = 1;
    while ((step << 1) <= bits_.size()) step <<= 1;
    for (; step > 0; step >>= 1) {
      const std::size_t next = pos + step;
      if (next <= bits_.size() && tree_[next] < remaining) {
        pos = next;
        remaining -= tree_[next];
      }
    }
    // pos = largest 1-based prefix length with fewer than k+1 members,
    // so the hit is 1-based index pos+1, i.e. 0-based slot pos.
    return pos;
  }

  /// Number of members with index < i.
  std::size_t rank(std::size_t i) const {
    return prefix(i < bits_.size() ? i : bits_.size());
  }

 private:
  std::size_t prefix(std::size_t i) const {  // sum of elements [1..i], 1-based
    std::size_t s = 0;
    for (; i > 0; i &= i - 1) s += tree_[i];
    return s;
  }

  void update(std::size_t i, int delta) {  // 1-based
    for (; i < tree_.size(); i += i & (~i + 1))
      tree_[i] = static_cast<std::size_t>(
          static_cast<std::int64_t>(tree_[i]) + delta);
  }

  std::vector<std::uint8_t> bits_;
  std::vector<std::size_t> tree_;  // tree_[0] unused
  std::size_t count_ = 0;
};

}  // namespace onion
