#include "core/methodology.hpp"

#include "core/gap.hpp"

namespace gap::core {

Methodology typical_asic() {
  Methodology m;
  m.name = "typical-asic";
  // Average ASICs ship 120-150 MHz parts: they sign off between typical
  // and the worst-case quote (section 8.3's speed-tested middle ground).
  m.corner = tech::corner_conservative();
  // Automatic place-and-route always optimized cell placement; what the
  // average ASIC lacked was chip-level floorplanning (section 5), which
  // is a multi-module effect studied in E5.
  m.placement = place::PlacementMode::kCareful;
  return m;
}

Methodology good_asic() {
  Methodology m;
  m.name = "good-asic";
  m.pipeline_stages = 5;
  m.datapath = designs::DatapathStyle::kMacro;
  m.placement = place::PlacementMode::kCareful;
  m.corner = tech::corner_typical();  // speed-tested parts (section 8.3)
  return m;
}

Methodology full_custom() {
  Methodology m;
  m.name = "full-custom";
  // Real custom CPUs stop near 5 stages / 15 FO4 per cycle: hazards and
  // IPC limit how deep pipelining pays (section 4.1's trade-off).
  m.pipeline_stages = 5;
  m.balanced_stages = true;
  m.datapath = designs::DatapathStyle::kMacro;
  m.skew_fraction = 0.05;
  m.placement = place::PlacementMode::kCareful;
  m.library = LibraryKind::kCustom;
  m.sizing = SizingLevel::kContinuous;
  m.dynamic_logic = true;
  m.corner = tech::corner_fast_bin();
  return m;
}

bool continuous_sizing(const Methodology& m,
                       const library::CellLibrary& lib) {
  return m.sizing == SizingLevel::kContinuous && lib.continuous_sizing;
}

std::optional<Methodology> methodology_by_name(const std::string& name) {
  if (name == "typical") return typical_asic();
  if (name == "good") return good_asic();
  if (name == "custom") return full_custom();
  if (name == "reference") return reference_methodology();
  return std::nullopt;
}

std::vector<std::string> methodology_names() {
  return {"typical", "good", "custom", "reference"};
}

}  // namespace gap::core
