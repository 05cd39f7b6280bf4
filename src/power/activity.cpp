#include "power/activity.hpp"

#include <bit>
#include <cstdint>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "netlist/simulate.hpp"

namespace gap::power {
namespace {

/// Random-vector rounds of 64 cycles each, and the stimulus seed.
constexpr int kRounds = 16;
constexpr std::uint64_t kSeed = 1;

/// A 64-cycle Markov bit stream with per-cycle flip probability p.
std::uint64_t markov_stream(Rng& rng, double p) {
  std::uint64_t v = rng.bernoulli(0.5) ? 1u : 0u;
  for (int i = 1; i < 64; ++i) {
    const std::uint64_t prev = (v >> (i - 1)) & 1u;
    const std::uint64_t bit = rng.bernoulli(p) ? prev ^ 1u : prev;
    v |= bit << i;
  }
  return v;
}

}  // namespace

std::vector<double> estimate_activity(const netlist::Netlist& nl,
                                      const ActivityOptions& options) {
  GAP_EXPECTS(options.input_toggle >= 0.0 && options.input_toggle <= 1.0);
  Rng rng(kSeed);

  std::size_t n_in = 0;
  for (PortId p : nl.all_ports())
    if (nl.port(p).is_input) ++n_in;

  std::vector<double> toggles(nl.num_nets(), 0.0);
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::uint64_t> pi(n_in);
    for (auto& v : pi) v = markov_stream(rng, options.input_toggle);
    const auto values = netlist::simulate_all_nets(nl, pi);
    for (std::size_t i = 0; i < values.size(); ++i) {
      // Adjacent bits are consecutive cycles: 63 transitions per word.
      const std::uint64_t x = values[i] ^ (values[i] >> 1);
      toggles[i] += static_cast<double>(std::popcount(x & ~(1ull << 63)));
    }
  }
  const double cycles = 63.0 * kRounds;
  for (double& t : toggles) t /= cycles;
  return toggles;
}

}  // namespace gap::power
