#pragma once
/// \file place.hpp
/// Cell placement and net-length annotation. Three quality levels mirror
/// section 5 of the paper:
///  - kScattered: cells strewn at random across a large die (the paper's
///    "critical path distributed across a 100 mm^2 chip") — what you get
///    with no floorplanning and careless placement;
///  - kCareful: compact die sized from cell area, topology-seeded initial
///    placement, simulated-annealing HPWL refinement;
///  - kCareful with module regions from gap::floorplan: each module's
///    cells stay inside its floorplan rectangle (the custom flow).
/// After placement every net is annotated with its half-perimeter
/// wirelength, which STA converts to RC delay.

#include <optional>
#include <unordered_map>

#include "floorplan/floorplan.hpp"
#include "netlist/netlist.hpp"

namespace gap::place {

enum class PlacementMode {
  kScattered,  ///< random over a fixed large die, no optimization
  kCareful,    ///< compact die + SA refinement
};

struct PlaceOptions {
  PlacementMode mode = PlacementMode::kCareful;

  /// Scattered-mode die-edge override in mm; 0 means "compact die edge
  /// times scatter_spread". Set to 10.0 to reproduce the paper's
  /// critical-path-across-a-100 mm^2-chip scenario directly.
  double scatter_die_mm = 0.0;

  /// Scattered-mode dilation of the compact die edge: without
  /// floorplanning, a block's logic lands interleaved with unrelated
  /// logic over a region a few times its own footprint.
  double scatter_spread = 1.5;
  int sa_moves = 30000;
  std::uint64_t seed = 1;

  /// Optional floorplan regions: module id -> rectangle. Instances carry
  /// their module id; instances of unlisted modules use the whole die.
  std::unordered_map<ModuleId, floorplan::PlacedModule> regions;
};

struct PlaceResult {
  double die_w_um = 0.0;
  double die_h_um = 0.0;
  double total_hpwl_um = 0.0;
  double initial_hpwl_um = 0.0;  ///< before SA refinement
};

/// Place all instances of `nl` (writes Instance::x_um/y_um) and annotate
/// every net's length_um with its HPWL.
PlaceResult place(netlist::Netlist& nl, const PlaceOptions& options);

/// Recompute net length annotations from current instance positions
/// (useful after incremental moves).
void annotate_net_lengths(netlist::Netlist& nl);

/// Total half-perimeter wirelength over all nets (requires placement).
[[nodiscard]] double total_hpwl(const netlist::Netlist& nl);

}  // namespace gap::place
