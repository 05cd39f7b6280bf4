#include "core/chip.hpp"

#include <cmath>

#include "place/place.hpp"

namespace gap::core {

ChipResult implement_chip(const Flow& flow, const Methodology& m,
                          FloorplanQuality quality, std::uint64_t seed) {
  const library::CellLibrary& lib = flow.library_for(m.library);
  designs::SocResult soc = designs::make_soc(lib, m.datapath);

  // --- module-level floorplan ---
  floorplan::FloorplanResult fp;
  if (quality == FloorplanQuality::kOptimized) {
    floorplan::FloorplanOptions opt;
    opt.sa_moves = 20000;
    opt.seed = seed;
    fp = floorplan::floorplan(soc.modules, soc.module_nets, opt);
  } else {
    // Careless: modules strewn diagonally across a die four times the
    // packed area — the "no chip-level floorplanning" arrangement.
    double packed_area = 0.0;
    for (const auto& mod : soc.modules) packed_area += mod.area_um2;
    const double die_edge = 2.0 * std::sqrt(packed_area);
    fp.die_w_um = fp.die_h_um = die_edge;
    const std::size_t n = soc.modules.size();
    for (std::size_t i = 0; i < n; ++i) {
      const double w = std::sqrt(soc.modules[i].area_um2);
      // Alternate corners so consecutive (heavily connected) modules end
      // up maximally far apart.
      const std::size_t corner = (i * 2 + i / 2) % 4;
      const double x = (corner % 2 == 0) ? 0.0 : die_edge - w;
      const double y = (corner / 2 == 0) ? 0.0 : die_edge - w;
      fp.modules.push_back({x, y, w, w});
    }
    fp.total_wirelength_um = floorplan::wirelength(fp.modules, soc.module_nets);
  }

  // --- placement inside the module rectangles ---
  place::PlaceOptions popt;
  popt.mode = place::PlacementMode::kCareful;
  popt.seed = seed;
  for (std::size_t b = 0; b < soc.blocks.size(); ++b)
    popt.regions.emplace(soc.blocks[b].module, fp.modules[b]);

  ChipResult result;
  result.nl = std::make_shared<netlist::Netlist>(std::move(soc.nl));
  netlist::Netlist& nl = *result.nl;
  const place::PlaceResult placed = place::place(nl, popt);
  result.cell_hpwl_um = placed.total_hpwl_um;
  result.module_wirelength_um = fp.total_wirelength_um;
  result.die_area_mm2 = fp.die_w_um * fp.die_h_um * 1e-6;

  // --- buffering and sizing; signoff answers from the sizing timer ---
  std::optional<sta::IncrementalTimer> timer;
  size_netlist(nl, m, timer);
  result.timing = timer->timing();
  result.freq_mhz = result.timing.frequency_mhz();
  return result;
}

}  // namespace gap::core
