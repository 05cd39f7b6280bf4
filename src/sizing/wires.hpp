#pragma once
/// \file wires.hpp
/// Wire sizing on critical nets — the capability the paper flags as
/// future work for ASIC flows ("tools for wire sizing along with
/// transistor sizing may be available in the future (e.g. [6])",
/// section 6.2, citing Chen, Chu & Wong's Lagrangian relaxation).
/// Implemented here as greedy critical-net widening: widening divides a
/// wire's resistance while growing only its area capacitance, so RC-
/// dominated nets speed up. Accepted moves must improve the measured
/// period; a Lagrangian formulation is left to the optimizer-inclined.
/// Like TILOS, it re-times each candidate sta::Edit::set_wire_width
/// through a resident sta::IncrementalTimer and reverts a rejected one
/// with the inverse edit, so the timer stays current for sign-off.

#include "sta/incremental.hpp"

namespace gap::sizing {

/// Widest allowed wire, in minimum-width multiples.
inline constexpr double kMaxWireWidth = 4.0;

struct WireSizingResult {
  int moves = 0;
  double initial_period_tau = 0.0;
  double final_period_tau = 0.0;
};

/// Widen RC-critical nets of the timer's netlist until no move improves
/// the period, timed with the timer's own options.
WireSizingResult widen_critical_wires(sta::IncrementalTimer& timer);

}  // namespace gap::sizing
