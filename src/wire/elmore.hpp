#pragma once
/// \file elmore.hpp
/// First-order RC wire delay (Elmore) in the spirit of BACPAC, the
/// analytical chip model the paper used for its floorplanning experiment
/// (section 5.1, footnote 3). A net is modeled as a distributed RC line of
/// the annotated length with the sink pins lumped at the far end.

#include "tech/technology.hpp"

namespace gap::wire {

/// A minimum-width wire segment in a given technology.
struct WireSegment {
  double length_um = 0.0;

  [[nodiscard]] double resistance_ohm(const tech::Technology& t) const {
    return t.wire_r_ohm_per_um * length_um;
  }
  [[nodiscard]] double capacitance_ff(const tech::Technology& t) const {
    return t.wire_c_ff_per_um * length_um;
  }
};

/// Elmore delay in ps of a distributed line driving a lumped sink load:
///   t = R * (C/2 + Csink)
[[nodiscard]] double elmore_delay_ps(const tech::Technology& t,
                                     const WireSegment& seg,
                                     double sink_cap_ff);

/// Same, returned in tau units of the technology.
[[nodiscard]] double elmore_delay_tau(const tech::Technology& t,
                                      const WireSegment& seg,
                                      double sink_cap_units);

/// Total capacitance of the segment in unit input capacitances.
[[nodiscard]] double wire_cap_units(const tech::Technology& t,
                                    const WireSegment& seg);

}  // namespace gap::wire
