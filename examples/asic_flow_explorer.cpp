/// \file asic_flow_explorer.cpp
/// Walk one design through every stage of the implementation flow and
/// print what each stage did to timing and area — the tutorial view of
/// the machinery behind the gap analysis. Optionally takes a design name
/// from the registry (default: mac16).

#include <cstdio>
#include <string>

#include "common/table.hpp"
#include "designs/registry.hpp"
#include "library/builders.hpp"
#include "netlist/checks.hpp"
#include "netlist/stats.hpp"
#include "pipeline/pipeline.hpp"
#include "place/place.hpp"
#include "sizing/buffers.hpp"
#include "sizing/tilos.hpp"
#include "sta/sta.hpp"
#include "synth/mapper.hpp"
#include "tech/technology.hpp"

int main(int argc, char** argv) {
  using namespace gap;
  const std::string design = argc > 1 ? argv[1] : "mac16";

  const tech::Technology t = tech::asic_025um();
  const library::CellLibrary lib = library::make_rich_asic_library(t);
  sta::StaOptions sta_opt;  // 10% skew ASIC clocking, typical corner

  std::printf("flow explorer: design '%s' in %s (FO4 = %.0f ps)\n\n",
              design.c_str(), t.name.c_str(), t.fo4_ps());

  gap::Table log({"stage", "instances", "area (um^2)", "period (FO4)",
                  "freq"});
  auto snapshot = [&](const char* stage, const netlist::Netlist& nl) {
    const auto timing = sta::analyze(nl, sta_opt);
    log.add_row({stage, std::to_string(nl.num_instances()),
                 fmt(nl.total_area_um2(), 0), fmt(timing.min_period_fo4, 1),
                 fmt(timing.frequency_mhz(), 0) + " MHz"});
  };

  // 1. Logic synthesis: design generator -> AIG -> mapped netlist.
  const logic::Aig aig =
      designs::make_design(design, designs::DatapathStyle::kSynthesized);
  std::printf("AIG: %zu nodes, depth %d\n", aig.num_gates(), aig.depth());
  netlist::Netlist mapped =
      synth::map_to_netlist(aig, lib, synth::MapOptions{}, design);
  snapshot("technology mapping", mapped);

  // 2. Pipelining into 4 balanced stages.
  pipeline::PipelineOptions popt;
  popt.stages = 4;
  popt.balanced = true;
  auto piped = pipeline::pipeline_insert(mapped, popt);
  netlist::Netlist& nl = piped.nl;
  snapshot("pipeline (4 stages)", nl);

  // 3. Placement.
  place::PlaceOptions place_opt;
  const auto pr = place::place(nl, place_opt);
  snapshot("placement", nl);

  // 4. Fanout buffering and sizing.
  sizing::initial_drive_assignment(nl);
  snapshot("initial drive selection", nl);
  const auto buf = sizing::insert_buffers(nl, 96.0);
  sizing::initial_drive_assignment(nl);
  snapshot("fanout buffering", nl);
  sizing::SizingOptions sopt;
  sopt.sta = sta_opt;
  const auto sized = sizing::tilos_size(nl, sopt);
  snapshot("TILOS sizing", nl);

  // 5. Area recovery off the critical path at the achieved period.
  const double saved =
      sizing::recover_area(nl, sopt, sized.final_period_tau * 1.02);
  snapshot("area recovery (+2% slack)", nl);

  std::printf("%s\n", log.render().c_str());
  std::printf("die: %.0f x %.0f um, HPWL %.0f um\n", pr.die_w_um, pr.die_h_um,
              pr.total_hpwl_um);
  std::printf("buffers inserted: %d; TILOS moves: %d; area recovered: %.0f "
              "um^2\n\n",
              buf.buffers_inserted, sized.moves, saved);

  // Critical path report.
  const auto timing = sta::analyze(nl, sta_opt);
  std::printf("critical path (%zu cells, %.1f FO4 incl. overhead):\n",
              timing.critical_path.size(), timing.min_period_fo4);
  int shown = 0;
  for (InstanceId id : timing.critical_path) {
    if (shown++ >= 12) {
      std::printf("  ...\n");
      break;
    }
    const auto& c = nl.cell_of(id);
    std::printf("  %-22s %-10s drive %.2f\n", nl.instance(id).name.c_str(),
                c.name.c_str(), nl.drive_of(id));
  }
  const auto check = netlist::verify(nl);
  std::printf("\nstructural verification: %s\n",
              check.ok() ? "clean" : check.diagnostics.front().message.c_str());
  return 0;
}
