// Fenwick (binary-indexed) tree over non-negative slot weights: point
// update, prefix sum and "which slot owns the k-th unit" search, each in
// O(log n), plus an O(n) bulk build. OrderStatSet uses one over 0/1
// membership bits; the k-regular generator uses one over per-node
// forward-edge counts to address "the k-th edge" without an edge list.
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.hpp"

namespace onion {

/// Weights of slots 0..size()-1 with prefix sums and weighted search.
/// T is an unsigned count type; weights never go below zero.
template <class T>
class FenwickTree {
 public:
  /// `n` zero-weight slots.
  explicit FenwickTree(std::size_t n = 0) : tree_(n + 1, 0) {}

  /// Replaces the contents with `n` slots of weight `weight(i)`, in O(n):
  /// each node pushes its partial sum to its parent once.
  template <class Weight>
  void assign(std::size_t n, Weight weight) {
    tree_.assign(n + 1, 0);
    for (std::size_t i = 1; i <= n; ++i)
      tree_[i] = static_cast<T>(weight(i - 1));
    for (std::size_t i = 1; i <= n; ++i) {
      const std::size_t parent = i + lowbit(i);
      if (parent <= n) tree_[parent] += tree_[i];
    }
  }

  std::size_t size() const { return tree_.size() - 1; }

  /// Appends zero-weight slots up to `n`. Appended nodes are seeded from
  /// prefix sums (a new node's span can reach back into old slots), so
  /// growth is valid mid-life. No exact reserve: push_back's geometric
  /// growth keeps one-slot grows amortized O(1) instead of copying the
  /// tree each time.
  void grow(std::size_t n) {
    for (std::size_t i = tree_.size(); i <= n; ++i)
      tree_.push_back(prefix(i - 1) - prefix(i - lowbit(i)));
  }

  void add(std::size_t slot, T delta) {
    ONION_EXPECTS(slot < size());
    for (std::size_t i = slot + 1; i < tree_.size(); i += lowbit(i))
      tree_[i] += delta;
  }

  /// Precondition: slot's weight is at least `delta`.
  void subtract(std::size_t slot, T delta) {
    ONION_EXPECTS(slot < size());
    for (std::size_t i = slot + 1; i < tree_.size(); i += lowbit(i))
      tree_[i] -= delta;
  }

  /// Sum of the weights of slots [0, n).
  T prefix(std::size_t n) const {
    T s = 0;
    for (; n > 0; n &= n - 1) s += tree_[n];
    return s;
  }

  /// The slot owning unit `k` (0-based) when every slot lays out its
  /// weight in units, in slot order: the s with prefix(s) <= k <
  /// prefix(s + 1). Zero-weight slots own nothing and are never
  /// returned. Precondition: k < prefix(size()).
  std::size_t find(T k) const {
    std::size_t pos = 0;
    std::size_t step = 1;
    while ((step << 1) <= size()) step <<= 1;
    for (; step > 0; step >>= 1) {
      const std::size_t next = pos + step;
      if (next <= size() && tree_[next] <= k) {
        pos = next;
        k -= tree_[next];
      }
    }
    // pos = the longest prefix holding at most k units, so unit k sits
    // in the next slot, 0-based index pos.
    ONION_EXPECTS(pos < size());
    return pos;
  }

 private:
  static std::size_t lowbit(std::size_t i) { return i & (~i + 1); }

  std::vector<T> tree_;  // 1-indexed; node i covers slots (i - lowbit(i), i]
};

}  // namespace onion
