#pragma once
/// \file activity.hpp
/// Switching-activity estimation by random-vector simulation: the toggle
/// density of every net under random primary-input stimulus. Power is the
/// second axis of the paper's comparison (section 2: the 750 MHz Alpha
/// burns 90 W where the 1 GHz PowerPC needs 6.3 W; section 7: "dynamic
/// logic has higher power consumption").

#include <vector>

#include "netlist/netlist.hpp"

namespace gap::power {

struct ActivityOptions {
  /// Toggle probability assumed for primary inputs (0.5 = fully random
  /// data; control-dominated blocks are lower).
  double input_toggle = 0.5;
};

/// Toggle density per net: expected transitions per clock cycle, indexed
/// by NetId. Sequential outputs toggle at their D-input's density (one
/// update per cycle); combinational nets include glitch-free switching
/// only (a documented first-order approximation).
[[nodiscard]] std::vector<double> estimate_activity(
    const netlist::Netlist& nl, const ActivityOptions& options);

}  // namespace gap::power
