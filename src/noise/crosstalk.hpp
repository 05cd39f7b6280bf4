#pragma once
/// \file crosstalk.hpp
/// Crosstalk noise analysis — the reason section 7.1 gives for domino's
/// absence from ASIC libraries: "dynamic logic is particularly
/// susceptible to noise, as any glitches on input voltages may cause a
/// discharge of the charge stored... These problems become more
/// pronounced with deeper submicron technologies."
///
/// Model: a victim net of length L couples to a parallel aggressor over
/// a fraction of its length. When the aggressor switches, the victim sees
/// a bump of Vdd * Cc / (Cc + Cg + Cpins): the standard charge-sharing
/// estimate with the driver's holding resistance ignored (worst case).
/// A static CMOS receiver tolerates bumps up to ~Vdd/2 (it is restoring);
/// a domino input must stay below the NMOS threshold (~Vt), because any
/// excursion above it starts discharging the dynamic node and the error
/// is latched, not restored.

#include <vector>

#include "netlist/netlist.hpp"

namespace gap::noise {

struct NetNoise {
  NetId net;
  double bump_fraction = 0.0;  ///< victim bump / Vdd
  bool fails_static = false;
  bool fails_domino = false;
};

struct NoiseReport {
  std::vector<NetNoise> nets;  ///< nets with nonzero coupling, worst first
  std::size_t static_failures = 0;
  std::size_t domino_failures = 0;
  double worst_bump_fraction = 0.0;
};

/// Analyze every routed net (length > 0). Receiver family is taken from
/// the actual sink cells: a bump on a net only counts against the domino
/// margin if a domino input listens to it.
[[nodiscard]] NoiseReport analyze_noise(const netlist::Netlist& nl);

/// Victim bump fraction for one net (exposed for tests and sizing).
[[nodiscard]] double bump_fraction(const netlist::Netlist& nl, NetId net);

}  // namespace gap::noise
