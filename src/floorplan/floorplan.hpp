#pragma once
/// \file floorplan.hpp
/// Chip-level floorplanning (section 5: "custom ICs are typically manually
/// floorplanned; a number of tools are now reaching the ASIC market").
/// Modules are placed by simulated annealing over the sequence-pair
/// representation (Murata et al.), minimizing a weighted sum of bounding
/// area and module-level net wirelength. The result assigns each module a
/// rectangle; gap::place then arranges cells inside their module.

#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"

namespace gap::floorplan {

struct Module {
  std::string name;
  double area_um2 = 0.0;
  double aspect = 1.0;  ///< initial width/height ratio
};

/// A module-level net: connects a set of modules with a weight (signal
/// count between the modules).
struct ModuleNet {
  std::vector<ModuleId> modules;
  double weight = 1.0;
};

struct PlacedModule {
  double x_um = 0.0;  ///< lower-left corner
  double y_um = 0.0;
  double w_um = 0.0;
  double h_um = 0.0;

  [[nodiscard]] double cx() const { return x_um + w_um / 2.0; }
  [[nodiscard]] double cy() const { return y_um + h_um / 2.0; }
};

struct FloorplanResult {
  std::vector<PlacedModule> modules;  ///< indexed by ModuleId
  double die_w_um = 0.0;
  double die_h_um = 0.0;
  double total_wirelength_um = 0.0;  ///< weighted HPWL over module nets

  [[nodiscard]] double die_area_mm2() const {
    return die_w_um * die_h_um * 1e-6;
  }
};

struct FloorplanOptions {
  /// Weight of the wirelength term against the (unit-weight) area term.
  double wirelength_weight = 1.0;
  int sa_moves = 20000;
  std::uint64_t seed = 1;
};

/// Run the annealer. Modules are indexed by their position in `modules`
/// (ModuleId{i} refers to modules[i]).
[[nodiscard]] FloorplanResult floorplan(const std::vector<Module>& modules,
                                        const std::vector<ModuleNet>& nets,
                                        const FloorplanOptions& options);

/// Weighted HPWL of the module nets for a given placement.
[[nodiscard]] double wirelength(const std::vector<PlacedModule>& placed,
                                const std::vector<ModuleNet>& nets);

}  // namespace gap::floorplan
