#include "netlist/sweep.hpp"

#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace gap::netlist {

Netlist apply_sweep_point(const Netlist& nl, const SweepPoint& point) {
  GAP_EXPECTS(point.wire_length_scale >= 0.0);
  GAP_EXPECTS(point.extra_cap_units >= 0.0);
  Netlist out = nl;
  for (NetId n : out.all_nets()) {
    Net& net = out.net(n);
    net.length_um *= point.wire_length_scale;
    net.extra_cap_units += point.extra_cap_units;
  }
  return out;
}

std::vector<double> sweep_parameters(
    const Netlist& nl, const std::vector<SweepPoint>& points,
    const std::function<double(const Netlist&)>& metric,
    const ParamSweepOptions& options) {
  GAP_EXPECTS(metric != nullptr);
  // Each lane evaluates whole points on private copies; the base netlist
  // is only read. Point order in the result never depends on threads.
  return common::parallel_map(
      options.threads, points.size(), [&](std::size_t i) {
        return metric(apply_sweep_point(nl, points[i]));
      });
}

}  // namespace gap::netlist
