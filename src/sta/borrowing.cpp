#include "sta/borrowing.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"

namespace gap::sta {

double flop_min_period(const std::vector<double>& stage_delays_tau,
                       const FlopTimingModel& model) {
  GAP_EXPECTS(!stage_delays_tau.empty());
  GAP_EXPECTS(model.skew_fraction >= 0.0 && model.skew_fraction < 1.0);
  const double worst =
      *std::max_element(stage_delays_tau.begin(), stage_delays_tau.end());
  return (worst + model.overhead_tau) / (1.0 - model.skew_fraction);
}

namespace {

/// Can the pipeline run at period T with transparent latches?
bool feasible(const std::vector<double>& d, const LatchTimingModel& m,
              double T) {
  // Latch at boundary i (after stage i, 1-based) closes at i*T and is
  // transparent during [i*T - duty*T, i*T]. Data departs a latch when both
  // it and the window have arrived; it must beat the close by setup+skew.
  double depart = 0.0;  // launch from boundary 0 at the cycle edge
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double arrive = depart + d[i];
    const double boundary = static_cast<double>(i + 1) * T;
    if (arrive > boundary - m.setup_tau - m.skew_fraction * T) return false;
    const double open = boundary - m.duty * T;
    depart = std::max(arrive, open) + m.d_to_q_tau;
  }
  return true;
}

}  // namespace

double latch_min_period(const std::vector<double>& stage_delays_tau,
                        const LatchTimingModel& model) {
  GAP_EXPECTS(!stage_delays_tau.empty());
  const double total = std::accumulate(stage_delays_tau.begin(),
                                       stage_delays_tau.end(), 0.0);
  // Lower bound: perfect borrowing -> average stage. Upper bound: behave
  // like flops with the same overhead.
  double lo = total / static_cast<double>(stage_delays_tau.size()) * 0.5;
  double hi =
      (*std::max_element(stage_delays_tau.begin(), stage_delays_tau.end()) +
       model.d_to_q_tau + model.setup_tau) /
          (1.0 - model.skew_fraction) +
      1.0;
  GAP_ENSURES(feasible(stage_delays_tau, model, hi));
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (feasible(stage_delays_tau, model, mid))
      hi = mid;
    else
      lo = mid;
  }
  return hi;
}

}  // namespace gap::sta
