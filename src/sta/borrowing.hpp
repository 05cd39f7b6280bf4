#pragma once
/// \file borrowing.hpp
/// Time borrowing through level-sensitive latches (section 4.1: "ASIC
/// tools have problems with complicated multi-phase clocking schemes that
/// would allow time borrowing between pipeline stages"). Given per-stage
/// combinational delays, computes the minimum period for
///   (a) edge-triggered flip-flops: T = max stage + overhead, and
///   (b) transparent latches: unbalanced stages borrow from neighbours,
///       approaching T = average stage + overhead when windows allow.

#include <vector>

namespace gap::sta {

struct FlopTimingModel {
  double overhead_tau = 0.0;    ///< setup + clk-to-Q
  double skew_fraction = 0.10;  ///< of the cycle
};

struct LatchTimingModel {
  double d_to_q_tau = 0.0;      ///< transparent propagation delay
  double setup_tau = 0.0;
  double duty = 0.5;            ///< transparent window as cycle fraction
  double skew_fraction = 0.05;
};

/// Minimum period of a linear pipeline with edge-triggered registers.
[[nodiscard]] double flop_min_period(const std::vector<double>& stage_delays_tau,
                                     const FlopTimingModel& model);

/// Minimum period with transparent latches at stage boundaries (binary
/// search over the borrowing recurrence).
[[nodiscard]] double latch_min_period(
    const std::vector<double>& stage_delays_tau, const LatchTimingModel& model);

}  // namespace gap::sta
