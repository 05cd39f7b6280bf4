#pragma once
/// \file variation.hpp
/// Process variation and accessibility (section 8 — with pipelining, the
/// largest factor: x1.90). The model has the structure the paper
/// describes:
///
///  - hierarchical variation within a plant: line-to-line, wafer-to-wafer,
///    die-to-die, and intra-die components (section 8.1.1), sampled as a
///    multiplicative lognormal speed factor per die;
///  - worst-case library corners: the quoted ASIC signoff speed derates
///    the slow process tail further for worst-case voltage and
///    temperature, which is why typical parts run 60-70% faster than the
///    quote (section 8);
///  - fab profiles: the best custom lines vs. merchant ASIC fabs, 20-25%
///    apart in the same technology (section 8.1.2);
///  - speed binning: selling the fast tail (custom) vs. guaranteeing the
///    slow tail at high yield (ASIC), section 8.3.

#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace gap::variation {

/// Sigma of each lognormal component of per-die delay.
struct VariationModel {
  double sigma_line = 0.04;
  double sigma_wafer = 0.03;
  double sigma_die = 0.05;
  double sigma_intra = 0.04;

  /// Fab centering: mean delay factor relative to the technology's
  /// nominal (1.0 = perfectly centered best-practice line).
  double mean_delay_factor = 1.0;
};

/// A new process ramping (Intel/AMD early life): total speed range about
/// 30-40% (section 8.1.1, footnote 6).
[[nodiscard]] VariationModel new_process();

/// A mature process: tightened distribution.
[[nodiscard]] VariationModel mature_process();

/// Named fabrication line.
struct FabProfile {
  const char* name;
  VariationModel model;
};

/// Best-in-class line custom vendors use.
[[nodiscard]] FabProfile best_fab();
/// Typical merchant ASIC line: 20-25% slower in the same technology
/// (section 8.1.2).
[[nodiscard]] FabProfile merchant_fab();

/// Worst-case signoff derating on top of slow process (low voltage, high
/// temperature), applied when a library quotes worst-case delays.
struct SignoffDerating {
  double voltage = 1.18;
  double temperature = 1.15;

  [[nodiscard]] double factor() const { return voltage * temperature; }
};

/// Sample the delay factor of one die (1.0 = nominal). Intra-die
/// variation mostly averages out along a long critical path but shifts
/// the mean up slightly (max over paths).
[[nodiscard]] double sample_delay_factor(const VariationModel& m, Rng& rng);

/// Monte Carlo: per-die *speed* factors (1/delay) for `n` dies. Die i
/// draws from the counter-based stream Rng::stream(seed, i), fanned out
/// over `threads` (0 = hardware concurrency, 1 = serial loop); the vector
/// is bit-identical at any thread count.
[[nodiscard]] std::vector<double> monte_carlo_speeds(const FabProfile& fab,
                                                     int n,
                                                     std::uint64_t seed,
                                                     int threads = 1);

/// Binning statistics over a speed-factor sample.
struct BinStats {
  double worst_case_quote = 0.0;  ///< signoff speed: slow 3-sigma + derating
  double slow_bin = 0.0;          ///< ~1st percentile silicon (sellable bin)
  double typical = 0.0;           ///< median silicon
  double fast_bin = 0.0;          ///< ~99th percentile silicon (sellable bin)
  double slow_tail = 0.0;         ///< 3-sigma slow outliers
  double fast_tail = 0.0;         ///< 3-sigma fast outliers ("fastest chips")
  /// (fast - slow) / slow over the sellable bins: the in-plant speed
  /// range of section 8.1.1 (footnote 6's 533-733 MHz product range).
  double range_fraction = 0.0;
};

[[nodiscard]] BinStats bin_stats(const std::vector<double>& speeds,
                                 const SignoffDerating& derating);

/// Fraction of dies at least as fast as `speed_threshold` (sellable yield
/// at that bin).
[[nodiscard]] double bin_yield(const std::vector<double>& speeds,
                               double speed_threshold);

/// Fastest speed sellable at the given yield requirement.
[[nodiscard]] double speed_at_yield(const std::vector<double>& speeds,
                                    double yield);

/// Gain from speed-testing parts instead of trusting worst-case quotes
/// (section 8.3: "this may allow a 30% to 40% improvement in speed over
/// worst-case speeds"). Testing recovers the process pessimism (use your
/// own distribution at the given yield, not the 3-sigma tail) and the
/// worst-case *voltage* margin (the board regulates), but operating
/// temperature margin must stay.
[[nodiscard]] double speed_test_gain(const std::vector<double>& speeds,
                                     const SignoffDerating& derating,
                                     double yield = 0.98);

}  // namespace gap::variation
