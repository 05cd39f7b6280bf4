#pragma once
/// \file sweep.hpp
/// Parameter sweeps: evaluate a metric over systematically perturbed
/// copies of the netlist (wire length scaling and extra load) — the
/// what-if grids behind repeater and loading studies. Points are
/// independent, so the sweep fans out over a gap::common::ThreadPool;
/// results come back in point order and are bit-identical at any thread
/// count.

#include <functional>
#include <vector>

#include "netlist/netlist.hpp"

namespace gap::netlist {

/// One point of a parameter sweep: multiplicative perturbations applied
/// to every net of a copy of the base netlist.
struct SweepPoint {
  double wire_length_scale = 1.0;  ///< scales Net::length_um
  double extra_cap_units = 0.0;    ///< added to Net::extra_cap_units
};

struct ParamSweepOptions {
  /// 0 = hardware concurrency, 1 = serial loop (see common/thread_pool).
  int threads = 1;
};

/// The perturbed copy a sweep point evaluates (exposed for tests and for
/// callers that want the best point's netlist back).
[[nodiscard]] Netlist apply_sweep_point(const Netlist& nl,
                                        const SweepPoint& point);

/// Evaluate `metric` on the perturbed copy at every point. Results are
/// in point order, independent of thread count.
[[nodiscard]] std::vector<double> sweep_parameters(
    const Netlist& nl, const std::vector<SweepPoint>& points,
    const std::function<double(const Netlist&)>& metric,
    const ParamSweepOptions& options = {});

}  // namespace gap::netlist
