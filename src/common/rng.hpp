#pragma once
/// \file rng.hpp
/// Deterministic, seedable random number generation for Monte Carlo
/// variation analysis and simulated annealing. We use xoshiro256**
/// rather than std::mt19937 for speed and a guaranteed-stable stream
/// across standard libraries (experiments must be bit-reproducible).

#include <cstdint>

namespace gap {

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box–Muller (cached second deviate).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double sigma);

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p);

  /// Counter-based stream derivation: the generator for stream `index` of
  /// master `seed`. It is a pure function of (seed, index) — stream i can
  /// be constructed on any thread, in any order, and always yields the
  /// same draws. This is the determinism
  /// contract of the parallel Monte Carlo paths (docs/parallelism.md):
  /// sample i uses Rng::stream(seed, i) whether it runs serially or on a
  /// 64-lane pool, so thread count never changes numeric results.
  [[nodiscard]] static Rng stream(std::uint64_t seed, std::uint64_t index);

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace gap
