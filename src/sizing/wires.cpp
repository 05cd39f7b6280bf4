#include "sizing/wires.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/check.hpp"

namespace gap::sizing {

constexpr double kStep = 1.5;  ///< multiplicative width step
constexpr int kMaxMoves = 200;
constexpr double kMinLengthUm = 100.0;  ///< ignore short nets

WireSizingResult widen_critical_wires(sta::IncrementalTimer& timer) {
  const netlist::Netlist& nl = timer.netlist();
  WireSizingResult result;
  sta::TimingResult timing = timer.timing();
  result.initial_period_tau = timing.min_period_tau;
  result.final_period_tau = timing.min_period_tau;
  if (timing.num_endpoints == 0) return result;

  std::unordered_set<std::uint32_t> blocked;
  while (result.moves < kMaxMoves) {
    // Longest wire on the critical path that can still widen.
    NetId best;
    double best_len = kMinLengthUm;
    for (InstanceId id : timing.critical_path) {
      const NetId out = nl.instance(id).output;
      const netlist::Net& n = nl.net(out);
      if (blocked.contains(out.value())) continue;
      if (n.width_multiple >= kMaxWireWidth) continue;
      if (n.length_um > best_len) {
        best_len = n.length_um;
        best = out;
      }
    }
    if (!best.valid()) break;

    // A known net and a finite positive width: the timer cannot reject it.
    const double width =
        std::min(kMaxWireWidth, nl.net(best).width_multiple * kStep);
    const common::Result<sta::Edit> undo =
        timer.apply_undoable(sta::Edit::set_wire_width(best, width));
    GAP_EXPECTS(undo.ok());
    const sta::TimingResult after = timer.timing();
    if (after.min_period_tau < result.final_period_tau - 1e-9) {
      timing = after;
      result.final_period_tau = after.min_period_tau;
      ++result.moves;
      blocked.clear();
    } else {
      GAP_EXPECTS(timer.apply(*undo).ok());
      blocked.insert(best.value());
    }
  }
  return result;
}

}  // namespace gap::sizing
