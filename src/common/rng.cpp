#include "common/rng.hpp"

#include <cmath>

#include "common/check.hpp"

namespace gap {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// splitmix64: seeds the xoshiro state from a single 64-bit value.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  GAP_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  GAP_EXPECTS(n > 0);
  // Rejection-free multiply-shift (Lemire); bias negligible for n << 2^64.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next_u64()) * n) >> 64);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double sigma) {
  GAP_EXPECTS(sigma >= 0.0);
  return mean + sigma * normal();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

Rng Rng::stream(std::uint64_t seed, std::uint64_t index) {
  // Avalanche the master seed, fold in the counter, avalanche again. The
  // Rng constructor runs splitmix64 four more times to fill the xoshiro
  // state, so adjacent indices land in fully decorrelated states.
  std::uint64_t s = seed;
  s = splitmix64(s) ^ index;
  return Rng(splitmix64(s));
}

}  // namespace gap
