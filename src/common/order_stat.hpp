// Order-statistics bitmap: a Fenwick (binary-indexed) tree over a
// membership bitset, supporting set/clear/test in O(log n), select
// (k-th smallest member) in O(log n) and an O(n) bulk assign (the
// scenario tracker's attach). The scenario engine uses one over
// the honest-alive slots so that picking a uniform victim at 500k nodes
// costs a tree walk instead of materializing the full ascending id
// vector — while drawing the *same* random index, so snapshot streams
// stay byte-identical to the vector-based code it replaces.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/fenwick.hpp"

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

  /// Grows capacity (new slots absent). Valid mid-life, not just on an
  /// empty set.
  void ensure_size(std::size_t capacity) {
    if (capacity <= bits_.size()) return;
    bits_.resize(capacity, 0);
    tree_.grow(capacity);
  }

  /// Replaces the whole set with the members of `bits` (slot i is a
  /// member iff bits[i] != 0; capacity becomes bits.size()) in O(n),
  /// where a set() per member would pay O(n log n).
  void assign(std::vector<std::uint8_t> bits) {
    bits_ = std::move(bits);
    count_ = 0;
    for (std::uint8_t& b : bits_) {
      b = b != 0 ? 1 : 0;
      count_ += b;
    }
    tree_.assign(bits_.size(), [this](std::size_t i) { return bits_[i]; });
  }

  void set(std::size_t i) {
    ONION_EXPECTS(i < bits_.size());
    if (bits_[i]) return;
    bits_[i] = 1;
    ++count_;
    tree_.add(i, 1);
  }

  void clear(std::size_t i) {
    ONION_EXPECTS(i < bits_.size());
    if (!bits_[i]) return;
    bits_[i] = 0;
    --count_;
    tree_.subtract(i, 1);
  }

  /// Index of the k-th member (0-based, ascending). Precondition:
  /// k < count(). Equivalent to sorted_members()[k] without building it.
  std::size_t select(std::size_t k) const {
    ONION_EXPECTS_MSG(k < count_, "k=" << k << " count=" << count_);
    return tree_.find(k);
  }

  /// Number of members with index < i.
  std::size_t rank(std::size_t i) const {
    return tree_.prefix(i < bits_.size() ? i : bits_.size());
  }

 private:
  std::vector<std::uint8_t> bits_;
  FenwickTree<std::size_t> tree_;
  std::size_t count_ = 0;
};

}  // namespace onion
