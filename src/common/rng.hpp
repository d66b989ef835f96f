// Deterministic random number generation. Every stochastic component in
// the simulator draws from an explicitly seeded Rng so that experiments,
// tests, and benchmarks are reproducible bit-for-bit.
//
// The engine is xoshiro256** (Blackman & Vigna) — tiny state, excellent
// statistical quality, and independent of the standard library's
// unspecified distribution implementations (std::uniform_int_distribution
// is not portable across standard libraries; our rejection sampling is).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace onion {

/// Deterministic xoshiro256** generator with convenience sampling helpers.
/// Satisfies UniformRandomBitGenerator so it also plugs into <algorithm>.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds via splitmix64 expansion of `seed`, per the xoshiro authors'
  /// recommendation; every seed (including 0) yields a good state.
  explicit Rng(std::uint64_t seed = 0xc0ffee1234abcdULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64 random bits.
  std::uint64_t operator()() { return next_u64(); }
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  /// Uses rejection sampling: exactly uniform, portable across platforms.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform integer in [lo, hi]. Precondition: lo <= hi.
  std::uint64_t uniform_in(std::uint64_t lo, std::uint64_t hi);

  /// Uniform real in [0, 1).
  double uniform_real();

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Uniformly chosen element of a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    ONION_EXPECTS(!v.empty());
    return v[static_cast<std::size_t>(uniform(v.size()))];
  }

  /// Fisher–Yates shuffle (deterministic given the seed).
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.size() < 2) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform(i + 1));
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  /// k distinct ranks of [0, size), drawn by a partial Fisher–Yates
  /// shuffle of the virtual array 0, 1, ..., size − 1: step i draws
  /// j = i + uniform(size − i), swaps slots i and j, and emits slot i.
  /// Exactly k draws, in that order; the i-th rank is the i-th element a
  /// shuffle of the materialized array would put first. Only displaced
  /// slots are stored (a hash map of at most k entries), so the cost is
  /// O(k) expected whatever `size` is. Precondition: k <= size.
  std::vector<std::size_t> sample_indices(std::size_t size, std::size_t k);

  /// k distinct elements sampled without replacement (order randomized):
  /// v[r] for each rank r of sample_indices(v.size(), k), so the draws
  /// and the result are those of a partial Fisher–Yates over a copy of
  /// v, without making the copy. Precondition: k <= v.size().
  template <typename T>
  std::vector<T> sample(const std::vector<T>& v, std::size_t k) {
    std::vector<T> out;
    out.reserve(k);
    for (const std::size_t r : sample_indices(v.size(), k))
      out.push_back(v[r]);
    return out;
  }

  /// Derives an independent child generator; used to give each simulation
  /// actor its own stream so event-order changes do not perturb others.
  Rng split();

 private:
  std::uint64_t s_[4];
};

}  // namespace onion
