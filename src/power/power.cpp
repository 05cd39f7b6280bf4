#include "power/power.hpp"

#include "common/check.hpp"
#include "library/library.hpp"

namespace gap::power {
namespace {

/// Clock-pin input capacitance of a sequential or domino cell, in unit
/// input capacitances per unit drive.
constexpr double kClockPinCapUnits = 0.5;
/// Leakage per transistor-width unit (drive x transistor count), in nW.
constexpr double kLeakageNwPerWidth = 2.0;
/// Short-circuit current adder as a fraction of dynamic power.
constexpr double kShortCircuitFraction = 0.10;

}  // namespace

PowerReport estimate_power(const netlist::Netlist& nl,
                           const PowerOptions& options) {
  GAP_EXPECTS(options.freq_mhz > 0.0);
  const tech::Technology& t = nl.lib().technology();
  const auto activity = estimate_activity(nl, options.activity);

  const double vdd2 = t.vdd_v * t.vdd_v;
  const double f_hz = options.freq_mhz * 1e6;
  // P[mW] = 0.5 * alpha * C[fF] * V^2 * f[Hz] * 1e-12.
  auto switch_mw = [&](double alpha, double cap_ff) {
    return 0.5 * alpha * cap_ff * vdd2 * f_hz * 1e-12;
  };

  PowerReport r;
  for (NetId nid : nl.all_nets()) {
    const double cap_ff = nl.net_load(nid) * t.unit_inv_cin_ff;
    r.dynamic_mw += switch_mw(activity[nid.index()], cap_ff);
  }
  r.dynamic_mw *= 1.0 + kShortCircuitFraction;

  for (InstanceId id : nl.all_instances()) {
    const library::Cell& c = nl.cell_of(id);
    const double drive = nl.drive_of(id);
    const bool clocked =
        c.is_sequential() || c.family == library::Family::kDomino;
    if (clocked) {
      // The clock toggles twice per cycle into every clocked pin.
      const double clk_cap_ff =
          kClockPinCapUnits * drive * t.unit_inv_cin_ff;
      r.clock_mw += switch_mw(2.0, clk_cap_ff);
    }
    if (c.family == library::Family::kDomino && !c.is_sequential()) {
      // The dynamic node precharges high and (with random data) evaluates
      // low about half the time: roughly one full swing per cycle on the
      // internal node, sized with the gate.
      const double node_cap_ff = 0.5 * drive * t.unit_inv_cin_ff;
      r.precharge_mw += switch_mw(1.0, node_cap_ff);
    }
    const double width =
        drive * library::traits(c.func).num_transistors;
    r.leakage_mw += kLeakageNwPerWidth * width * 1e-6;
  }
  return r;
}

}  // namespace gap::power
