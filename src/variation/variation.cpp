#include "variation/variation.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"

namespace gap::variation {

VariationModel new_process() {
  // Calibrated so the 1st..99th percentile in-plant speed range is about
  // 30-40% (footnote 6: Intel's initial 0.18um bins spanned 533-733 MHz)
  // and the fast 3-sigma tail runs 20-30% above the median.
  VariationModel m;
  m.sigma_line = 0.04;
  m.sigma_wafer = 0.03;
  m.sigma_die = 0.05;
  m.sigma_intra = 0.04;
  return m;
}

VariationModel mature_process() {
  VariationModel m = new_process();
  m.sigma_line *= 0.6;
  m.sigma_wafer *= 0.6;
  m.sigma_die *= 0.6;
  m.sigma_intra *= 0.8;
  return m;
}

FabProfile best_fab() { return {"best-fab", new_process()}; }

FabProfile merchant_fab() {
  VariationModel m = new_process();
  // Section 8.1.2: identical designs vary 20-25% between companies' fabs
  // in the same technology.
  m.mean_delay_factor = 1.22;
  return {"merchant-fab", m};
}

double sample_delay_factor(const VariationModel& m, Rng& rng) {
  const double z = m.sigma_line * rng.normal() + m.sigma_wafer * rng.normal() +
                   m.sigma_die * rng.normal();
  // Intra-die variation along a long critical path: the max over many
  // partially averaged paths shifts the mean up by about half a sigma and
  // leaves a reduced residual spread.
  const double intra = 0.5 * m.sigma_intra + 0.3 * m.sigma_intra * rng.normal();
  return m.mean_delay_factor * std::exp(z + intra);
}

std::vector<double> monte_carlo_speeds(const FabProfile& fab, int n,
                                       std::uint64_t seed, int threads) {
  GAP_TRACE_SPAN("variation::monte_carlo");
  GAP_EXPECTS(n > 0);
  static common::Counter& samples =
      common::metrics().counter("variation.mc_samples");
  samples.add(static_cast<std::uint64_t>(n));
  // One counter-based stream per die: die i's draws depend only on
  // (seed, i), never on which lane samples it or how many dies precede
  // it on that lane — the determinism contract of docs/parallelism.md.
  return common::parallel_map(
      threads, static_cast<std::size_t>(n), [&](std::size_t i) {
        Rng rng = Rng::stream(seed, i);
        return 1.0 / sample_delay_factor(fab.model, rng);
      });
}

BinStats bin_stats(const std::vector<double>& speeds,
                   const SignoffDerating& derating) {
  GAP_EXPECTS(!speeds.empty());
  SampleStats s;
  s.add_all(speeds);
  BinStats b;
  b.slow_bin = s.quantile(0.01);
  b.typical = s.quantile(0.50);
  b.fast_bin = s.quantile(0.99);
  b.slow_tail = s.quantile(0.0013);
  b.fast_tail = s.quantile(0.9987);
  // The signoff quote guards the slow 3-sigma process tail and further
  // derates for worst-case voltage and temperature.
  b.worst_case_quote = b.slow_tail / derating.factor();
  b.range_fraction = (b.fast_bin - b.slow_bin) / b.slow_bin;
  return b;
}

double bin_yield(const std::vector<double>& speeds, double speed_threshold) {
  GAP_EXPECTS(!speeds.empty());
  std::size_t ok = 0;
  for (double s : speeds)
    if (s >= speed_threshold) ++ok;
  return static_cast<double>(ok) / static_cast<double>(speeds.size());
}

double speed_at_yield(const std::vector<double>& speeds, double yield) {
  GAP_EXPECTS(yield > 0.0 && yield <= 1.0);
  SampleStats s;
  s.add_all(speeds);
  return s.quantile(1.0 - yield);
}

double speed_test_gain(const std::vector<double>& speeds,
                       const SignoffDerating& derating, double yield) {
  const double quote = bin_stats(speeds, derating).worst_case_quote;
  // Tested parts keep the temperature margin but recover the voltage
  // margin and the process tail beyond their own yield point.
  const double tested = speed_at_yield(speeds, yield) / derating.temperature;
  return tested / quote;
}

}  // namespace gap::variation
