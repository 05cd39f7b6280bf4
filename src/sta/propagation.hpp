#pragma once
/// \file propagation.hpp
/// Per-run timing state and the two option-derived scalars every STA
/// engine shares. The arithmetic over this state lives once, in
/// sta/kernels.hpp; the batch engine (sta.cpp) and the incremental engine
/// (incremental.cpp) both evaluate it through those kernels, so their
/// arrivals, required times, slacks and critical paths are byte-identical
/// — the contract tests/incremental_sta_test.cpp enforces.

#include <vector>

#include "netlist/netlist.hpp"
#include "sta/sta.hpp"

namespace gap::sta::detail {

/// Per-net / per-instance forward-timing state. Index arrays by
/// NetId::index() / InstanceId::index(). `wire_delay` is stored
/// post-corner (already multiplied by the corner delay factor).
struct ArrivalState {
  std::vector<double> arrival;      ///< per net, at the driver output
  std::vector<double> wire_delay;   ///< per net, added at every sink
  std::vector<double> driver_load;  ///< per net, load seen by the driver
  std::vector<NetId> crit_input;    ///< per instance, worst input net
};

/// The worst endpoint over the whole design: its path delay, the net
/// feeding it, and how many endpoints were considered.
struct WorstEndpoint {
  double path_tau;
  NetId net;
  std::size_t count = 0;
};

/// Per-instance statistical delay multiplier (1.0 without MC sampling).
[[nodiscard]] inline double inst_factor(const StaOptions& opt,
                                        InstanceId id) {
  if (opt.instance_delay_factors == nullptr) return 1.0;
  return (*opt.instance_delay_factors)[id.index()];
}

/// Data budget inside one cycle once skew is taken out.
[[nodiscard]] inline double cycle_budget(const StaOptions& opt,
                                         double period_tau) {
  return period_tau * (1.0 - opt.clock.skew_fraction) -
         opt.clock.extra_skew_tau;
}

}  // namespace gap::sta::detail
