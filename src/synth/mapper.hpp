#pragma once
/// \file mapper.hpp
/// Technology mapping: cover the logic network with library cells. The
/// mapper is a DAGON-style dynamic program over (node, polarity) states
/// with a structural pattern set covering single cells (inv, nand2, nor2,
/// and2, or2, xor2/xnor2, mux2, maj3) and two-level compounds (nand3/4,
/// and3, nor3, or3, aoi21, oai21). Structural XOR/MUX/MAJ nodes that the
/// target library cannot implement are lowered to AND-inverter logic first.
///
/// Delay mode minimizes estimated worst-path delay using the logical-effort
/// delay of each candidate cell at an assumed per-stage electrical effort;
/// area mode minimizes total cell area with area-flow sharing for
/// multi-fanout nodes. Drive selection is deferred to gap::sizing.

#include <string>
#include <vector>

#include "library/library.hpp"
#include "logic/aig.hpp"
#include "netlist/netlist.hpp"

namespace gap::synth {

enum class MapObjective { kDelay, kArea };

struct MapOptions {
  MapObjective objective = MapObjective::kDelay;

  /// Preferred circuit family; functions missing from this family fall
  /// back to static cells.
  library::Family family = library::Family::kStatic;
};

struct MapResult {
  std::vector<NetId> outputs;  ///< one net per AIG PO, in PO order
  int mapped_depth = 0;        ///< cell levels on the longest path
};

/// Map `aig` into an existing netlist `nl`. `input_nets[i]` supplies AIG
/// PI i. New instance/net names get `prefix`. Returns the PO nets.
MapResult map_into(const logic::Aig& aig, const MapOptions& options,
                   netlist::Netlist& nl, const std::vector<NetId>& input_nets,
                   const std::string& prefix);

/// Map `aig` into a standalone netlist with ports named after the AIG
/// PIs/POs.
[[nodiscard]] netlist::Netlist map_to_netlist(const logic::Aig& aig,
                                              const library::CellLibrary& lib,
                                              const MapOptions& options,
                                              std::string netlist_name);

}  // namespace gap::synth
