#include "noise/crosstalk.hpp"

#include <algorithm>

namespace gap::noise {

using netlist::Netlist;
using netlist::NetSink;

namespace {

/// Fraction of a net's length assumed parallel to one aggressor.
constexpr double kCoupledFraction = 0.5;
/// Coupling capacitance per um of parallel run, relative to the ground
/// capacitance per um (deep submicron: near 1.0 and rising — the "more
/// pronounced" trend of section 7.1).
constexpr double kCouplingRatio = 0.8;
/// Noise margins as fractions of Vdd.
constexpr double kStaticMargin = 0.45;  ///< restoring static CMOS receiver
constexpr double kDominoMargin = 0.20;  ///< ~Vt: dynamic node discharge

}  // namespace

double bump_fraction(const Netlist& nl, NetId net) {
  const netlist::Net& n = nl.net(net);
  if (n.length_um <= 0.0) return 0.0;
  const tech::Technology& t = nl.lib().technology();

  const double cg_ff = t.wire_c_ff_per_um * n.length_um;
  const double cc_ff = t.wire_c_ff_per_um * kCouplingRatio * n.length_um *
                       kCoupledFraction;
  double pins_ff = n.extra_cap_units * t.unit_inv_cin_ff;
  for (const NetSink& s : n.sinks)
    if (s.kind == NetSink::Kind::kInstancePin)
      pins_ff += nl.pin_cap(s.inst) * t.unit_inv_cin_ff;

  return cc_ff / (cc_ff + cg_ff + pins_ff);
}

NoiseReport analyze_noise(const Netlist& nl) {
  NoiseReport report;
  for (NetId nid : nl.all_nets()) {
    const double bump = bump_fraction(nl, nid);
    if (bump <= 0.0) continue;

    NetNoise v;
    v.net = nid;
    v.bump_fraction = bump;
    // Which margins apply depends on who listens.
    bool has_static_sink = false, has_domino_sink = false;
    for (const NetSink& s : nl.net(nid).sinks) {
      if (s.kind != NetSink::Kind::kInstancePin) continue;
      if (nl.cell_of(s.inst).family == library::Family::kDomino)
        has_domino_sink = true;
      else
        has_static_sink = true;
    }
    v.fails_static = has_static_sink && bump > kStaticMargin;
    v.fails_domino = has_domino_sink && bump > kDominoMargin;
    if (v.fails_static) ++report.static_failures;
    if (v.fails_domino) ++report.domino_failures;
    report.worst_bump_fraction =
        std::max(report.worst_bump_fraction, bump);
    report.nets.push_back(v);
  }
  std::sort(report.nets.begin(), report.nets.end(),
            [](const NetNoise& a, const NetNoise& b) {
              return a.bump_fraction > b.bump_fraction;
            });
  return report;
}

}  // namespace gap::noise
