#pragma once
/// \file power.hpp
/// Power estimation for implemented netlists:
///   dynamic  = 0.5 * alpha * C * Vdd^2 * f    per net,
///   clocking = flop/latch/domino clock-pin capacitance at alpha = 2,
///   domino   = precharge activity on dynamic nodes (~every cycle),
///   leakage  = per-transistor-width constant.
/// This supports the paper's power observations: section 2's Alpha
/// (90 W, domino, 2.25 cm^2) vs IBM PowerPC (6.3 W, 0.098 cm^2), and
/// section 7's "dynamic logic has higher power consumption".

#include "power/activity.hpp"

namespace gap::power {

struct PowerOptions {
  double freq_mhz = 100.0;
  ActivityOptions activity;
};

struct PowerReport {
  double dynamic_mw = 0.0;   ///< data switching
  double clock_mw = 0.0;     ///< clock tree load (sequential + domino)
  double precharge_mw = 0.0; ///< domino dynamic-node precharge
  double leakage_mw = 0.0;

  [[nodiscard]] double total_mw() const {
    return dynamic_mw + clock_mw + precharge_mw + leakage_mw;
  }
};

/// Estimate the power of an implemented netlist at the given frequency.
[[nodiscard]] PowerReport estimate_power(const netlist::Netlist& nl,
                                         const PowerOptions& options);

}  // namespace gap::power
