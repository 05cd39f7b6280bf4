#pragma once
/// \file timer_fixtures.hpp
/// Fixtures shared by the timing suites (incremental_sta_test,
/// soa_graph_test, obs_test): the register-bounded netlist a registry
/// design becomes in the real flow, the same netlist placed, and a
/// randomized edit generator — cell swaps, continuous resizes, net
/// rewires and clock-constraint changes, drawn from an Rng so every
/// script is reproducible from its seed.

#include <string>

#include "common/rng.hpp"
#include "designs/registry.hpp"
#include "netlist/netlist.hpp"
#include "pipeline/pipeline.hpp"
#include "place/place.hpp"
#include "sizing/tilos.hpp"
#include "sta/incremental.hpp"
#include "synth/mapper.hpp"

namespace gap {

/// Map + pipeline (one stage) a registry design and assign initial
/// drives: sequential launch/capture points plus deep combinational
/// cones, so every edit kind has something to hit.
inline netlist::Netlist registered_design(const std::string& name,
                                          const library::CellLibrary& lib) {
  const netlist::Netlist mapped = synth::map_to_netlist(
      designs::make_design(name, designs::DatapathStyle::kSynthesized), lib,
      synth::MapOptions{}, name);
  pipeline::PipelineOptions popt;
  popt.stages = 1;
  netlist::Netlist nl = pipeline::pipeline_insert(mapped, popt).nl;
  sizing::initial_drive_assignment(nl);
  return nl;
}

/// registered_design placed scattered over a 2 mm die, so that nets have
/// lengths and long ones take the repeater branch of the wire model.
inline netlist::Netlist placed_design(const std::string& name,
                                      const library::CellLibrary& lib) {
  netlist::Netlist nl = registered_design(name, lib);
  place::PlaceOptions opt;
  opt.mode = place::PlacementMode::kScattered;
  opt.scatter_die_mm = 2.0;
  place::place(nl, opt);
  return nl;
}

/// One random edit. Rewires may be rejected (combinational cycle); the
/// caller skips those, which is itself part of the contract under test:
/// a rejected edit must leave the timer bit-exact.
inline sta::Edit random_edit(Rng& rng, const netlist::Netlist& nl) {
  const auto pick_inst = [&] {
    return InstanceId(
        static_cast<std::uint32_t>(rng.uniform_index(nl.num_instances())));
  };
  switch (rng.uniform_index(8)) {
    case 0:
    case 1:
    case 2: {  // gate swap within the cell's own function ladder
      const InstanceId id = pick_inst();
      const library::Cell& c = nl.cell_of(id);
      const auto& ladder = nl.lib().cells_of(c.func, c.family);
      return sta::Edit::replace_cell(
          id, ladder[rng.uniform_index(ladder.size())]);
    }
    case 3:
    case 4:
    case 5:  // continuous resize; occasionally clear the override
      return sta::Edit::set_drive(
          pick_inst(), rng.bernoulli(0.2) ? 0.0 : rng.uniform(1.0, 24.0));
    case 6: {  // rewire one input pin to a random net
      const InstanceId id = pick_inst();
      const auto& inputs = nl.instance(id).inputs;
      if (inputs.empty()) return sta::Edit::set_drive(id, 4.0);
      return sta::Edit::rewire(
          id, static_cast<int>(rng.uniform_index(inputs.size())),
          NetId(static_cast<std::uint32_t>(rng.uniform_index(nl.num_nets()))));
    }
    default: {  // clock-constraint change
      sta::ClockSpec ck;
      ck.skew_fraction = rng.uniform(0.0, 0.3);
      ck.extra_skew_tau = rng.uniform(0.0, 2.0);
      return sta::Edit::set_clock(ck);
    }
  }
}

}  // namespace gap
