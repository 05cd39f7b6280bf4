#include <gtest/gtest.h>

#include "datapath/adders.hpp"
#include "library/builders.hpp"
#include "netlist/checks.hpp"
#include "place/place.hpp"
#include "sizing/tilos.hpp"
#include "sizing/wires.hpp"
#include "sta/report.hpp"
#include "wire/elmore.hpp"
#include "sta/statistical.hpp"
#include "synth/mapper.hpp"
#include "tech/technology.hpp"

namespace gap {
namespace {

using datapath::AdderKind;

class WireSizingTest : public ::testing::Test {
 protected:
  WireSizingTest() : lib_(library::make_rich_asic_library(tech::asic_025um())) {}

  /// A placed design with one long RC-dominated net on its critical path.
  netlist::Netlist with_long_wire(double length_um) {
    const auto aig = datapath::make_adder_aig(AdderKind::kRipple, 8);
    auto nl = synth::map_to_netlist(aig, lib_, synth::MapOptions{}, "d");
    sizing::initial_drive_assignment(nl);
    // Make the carry chain's middle net a cross-die route.
    for (NetId n : nl.all_nets())
      if (nl.net(n).name.find("_n_20") != std::string::npos)
        nl.net(n).length_um = length_um;
    return nl;
  }

  library::CellLibrary lib_;
};

TEST_F(WireSizingTest, WideningImprovesRcDominatedNet) {
  auto nl = with_long_wire(8000.0);
  sizing::WireSizingOptions opt;
  // Widening only pays on properly driven (repeated) lines: the repeated
  // delay goes as sqrt(RC), so R/w beats the area-capacitance growth.
  // On an unrepeated cap-dominated net the pass correctly refuses (the
  // extra capacitance would punish the driver) — see NoopWithoutWires.
  opt.sta.optimal_repeaters = true;
  const auto r = sizing::widen_critical_wires(nl, opt);
  EXPECT_GT(r.moves, 0);
  EXPECT_LT(r.final_period_tau, r.initial_period_tau);
  // Widths stay within the allowed range.
  for (NetId n : nl.all_nets()) {
    EXPECT_GE(nl.net(n).width_multiple, 1.0);
    EXPECT_LE(nl.net(n).width_multiple, opt.max_width + 1e-9);
  }
}

TEST_F(WireSizingTest, NoopWithoutWires) {
  const auto aig = datapath::make_adder_aig(AdderKind::kRipple, 8);
  auto nl = synth::map_to_netlist(aig, lib_, synth::MapOptions{}, "d");
  sizing::WireSizingOptions opt;
  const auto r = sizing::widen_critical_wires(nl, opt);
  EXPECT_EQ(r.moves, 0);
  EXPECT_DOUBLE_EQ(r.final_period_tau, r.initial_period_tau);
}

TEST_F(WireSizingTest, WideningReducesWireDelayPhysically) {
  // Direct physics check: at fixed length, a 4x-wide wire's Elmore delay
  // is well below minimum width (R drops 4x, C grows ~2.8x at 60% area
  // fraction -> RC drops ~30%+ with a fixed sink).
  const tech::Technology t = tech::asic_025um();
  wire::WireSegment narrow{5000.0, 1.0};
  wire::WireSegment wide{5000.0, 4.0};
  EXPECT_LT(wire::elmore_delay_ps(t, wide, 10.0),
            wire::elmore_delay_ps(t, narrow, 10.0) * 0.8);
}

class McStaTest : public ::testing::Test {
 protected:
  McStaTest() : lib_(library::make_rich_asic_library(tech::asic_025um())) {}

  netlist::Netlist mapped(AdderKind kind, int width) {
    const auto aig = datapath::make_adder_aig(kind, width);
    auto nl = synth::map_to_netlist(aig, lib_, synth::MapOptions{}, "d");
    sizing::initial_drive_assignment(nl);
    return nl;
  }

  library::CellLibrary lib_;
};

TEST_F(McStaTest, ZeroSigmaReproducesNominal) {
  auto nl = mapped(AdderKind::kRipple, 8);
  sta::McStaOptions opt;
  opt.samples = 10;
  opt.sigma_gate = 0.0;
  const auto r = sta::monte_carlo_sta(nl, opt);
  EXPECT_NEAR(r.period_tau.quantile(0.5), r.nominal_period_tau, 1e-9);
  EXPECT_NEAR(r.relative_spread(), 0.0, 1e-12);
}

TEST_F(McStaTest, MaxOfPathsShiftsMeanUp) {
  auto nl = mapped(AdderKind::kKoggeStone, 16);
  sta::McStaOptions opt;
  opt.samples = 150;
  opt.sigma_gate = 0.10;
  const auto r = sta::monte_carlo_sta(nl, opt);
  // Section 8.1.1's intra-die effect: the max over near-critical paths
  // sits above the nominal corner...
  EXPECT_GT(r.mean_shift(), 0.0);
  EXPECT_LT(r.mean_shift(), 0.15);
}

TEST_F(McStaTest, PathAveragingShrinksSpread) {
  // A deep path averages per-gate variation: the chip-level relative
  // spread is far below the per-gate sigma's naive 2*1.65*sigma window.
  auto nl = mapped(AdderKind::kRipple, 24);  // ~70 gates deep
  sta::McStaOptions opt;
  opt.samples = 150;
  opt.sigma_gate = 0.10;
  const auto r = sta::monte_carlo_sta(nl, opt);
  const double naive_window = 2.0 * 1.65 * opt.sigma_gate;  // q05..q95
  EXPECT_LT(r.relative_spread(), 0.5 * naive_window);
  EXPECT_GT(r.relative_spread(), 0.0);
}

TEST_F(McStaTest, DieSigmaPassesThroughUnaveraged) {
  // Die-to-die variation shifts every gate together: no averaging.
  auto nl = mapped(AdderKind::kRipple, 16);
  sta::McStaOptions gate_only;
  gate_only.samples = 120;
  gate_only.sigma_gate = 0.10;
  sta::McStaOptions die_only;
  die_only.samples = 120;
  die_only.sigma_gate = 0.0;
  die_only.sigma_die = 0.10;
  const auto rg = sta::monte_carlo_sta(nl, gate_only);
  const auto rd = sta::monte_carlo_sta(nl, die_only);
  EXPECT_GT(rd.relative_spread(), 2.0 * rg.relative_spread());
}

TEST_F(McStaTest, DeterministicBySeed) {
  auto nl = mapped(AdderKind::kRipple, 8);
  sta::McStaOptions opt;
  opt.samples = 20;
  const auto a = sta::monte_carlo_sta(nl, opt);
  const auto b = sta::monte_carlo_sta(nl, opt);
  EXPECT_EQ(a.period_tau.samples(), b.period_tau.samples());
}

TEST_F(McStaTest, ReportsRender) {
  auto nl = mapped(AdderKind::kCarryLookahead, 8);
  sta::StaOptions opt;
  const auto timing = sta::analyze(nl, opt);
  const std::string path = sta::format_critical_path(nl, timing);
  EXPECT_NE(path.find("min period"), std::string::npos);
  EXPECT_NE(path.find("MHz"), std::string::npos);
  const std::string hist =
      sta::format_slack_histogram(nl, opt, timing.min_period_tau);
  EXPECT_NE(hist.find("slack histogram"), std::string::npos);
  EXPECT_NE(hist.find('#'), std::string::npos);
}

}  // namespace
}  // namespace gap
