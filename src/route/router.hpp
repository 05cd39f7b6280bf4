#pragma once
/// \file router.hpp
/// Global routing over a bin grid — the third leg of section 5's wire
/// story ("wire length is obviously dependent on placement... but is also
/// influenced by the quality of routing"). Nets route as driver-rooted
/// stars without rip-up: each driver->sink pair takes the cheapest of a
/// horizontal run along the driver's row (it has no vertical leg, so it
/// stops at the sink's column), an L, and, when congestion-aware, two
/// Z shapes. An edge's cost grows with its utilization, so later nets
/// detour around hot channels. The router is flat: edge costs are cached
/// per edge and recomputed only when a net commits to the edge,
/// candidates are costed in place, and a per-call edge stamp merges the
/// trunks a net's sinks share (docs/data-layout.md, "Routing grid").
/// Routed lengths, max(HPWL, edges x pitch), are written back to the
/// netlist for STA.

#include <vector>

#include "netlist/netlist.hpp"

namespace gap::route {

struct RouteOptions {
  /// Routing grid granularity: target cell count per bin edge.
  int grid_bins = 32;
  /// Wire capacity per bin edge (tracks); lower = more congestion.
  double capacity_per_edge = 16.0;
  /// Congestion cost exponent: edge cost = 1 + (use/cap)^alpha.
  double alpha = 3.0;
  /// Congestion-aware single-bend choice + one Z-shape escape level.
  bool congestion_aware = true;
};

struct RouteResult {
  double total_routed_um = 0.0;
  double total_hpwl_um = 0.0;     ///< lower bound for comparison
  double max_utilization = 0.0;   ///< worst edge use/capacity
  double overflow_edges = 0.0;    ///< fraction of edges above capacity
  int detoured_nets = 0;          ///< nets longer than their HPWL

  [[nodiscard]] double detour_factor() const {
    return total_hpwl_um > 0.0 ? total_routed_um / total_hpwl_um : 1.0;
  }
};

/// Route every placed net and annotate Net::length_um with the routed
/// length. Instances must be placed.
RouteResult route(netlist::Netlist& nl, const RouteOptions& options);

}  // namespace gap::route
