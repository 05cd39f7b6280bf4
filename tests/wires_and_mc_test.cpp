#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <unordered_set>

#include "core/flow.hpp"
#include "core/methodology.hpp"
#include "datapath/adders.hpp"
#include "designs/registry.hpp"
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
  // Widening only pays on properly driven (repeated) lines: the repeated
  // delay goes as sqrt(RC), so R/w beats the area-capacitance growth.
  // On an unrepeated cap-dominated net the pass correctly refuses (the
  // extra capacitance would punish the driver) — see NoopWithoutWires.
  sta::StaOptions opt;
  opt.optimal_repeaters = true;
  sta::IncrementalTimer timer(nl, opt);
  const auto r = sizing::widen_critical_wires(timer);
  EXPECT_GT(r.moves, 0);
  EXPECT_LT(r.final_period_tau, r.initial_period_tau);
  // Widths stay within the allowed range.
  for (NetId n : nl.all_nets()) {
    EXPECT_GE(nl.net(n).width_multiple, 1.0);
    EXPECT_LE(nl.net(n).width_multiple, sizing::kMaxWireWidth + 1e-9);
  }
}

TEST_F(WireSizingTest, NoopWithoutWires) {
  const auto aig = datapath::make_adder_aig(AdderKind::kRipple, 8);
  auto nl = synth::map_to_netlist(aig, lib_, synth::MapOptions{}, "d");
  sta::IncrementalTimer timer(nl, sta::StaOptions{});
  const auto r = sizing::widen_critical_wires(timer);
  EXPECT_EQ(r.moves, 0);
  EXPECT_DOUBLE_EQ(r.final_period_tau, r.initial_period_tau);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The reference: wire widening as a batch loop. Same candidate rule,
/// step, cap and accept test, but each candidate width is written
/// straight into the netlist and timed by a from-scratch sta::analyze,
/// so no incremental state takes part.
sizing::WireSizingResult widen_with_batch_sta(netlist::Netlist& nl,
                                              const sta::StaOptions& opt) {
  constexpr double kStep = 1.5;
  constexpr int kMaxMoves = 200;
  constexpr double kMinLengthUm = 100.0;
  sizing::WireSizingResult result;
  sta::TimingResult timing = sta::analyze(nl, opt);
  result.initial_period_tau = timing.min_period_tau;
  result.final_period_tau = timing.min_period_tau;
  if (timing.num_endpoints == 0) return result;

  std::unordered_set<std::uint32_t> blocked;
  while (result.moves < kMaxMoves) {
    NetId best;
    double best_len = kMinLengthUm;
    for (InstanceId id : timing.critical_path) {
      const NetId out = nl.instance(id).output;
      const netlist::Net& n = nl.net(out);
      if (blocked.contains(out.value())) continue;
      if (n.width_multiple >= sizing::kMaxWireWidth) continue;
      if (n.length_um > best_len) {
        best_len = n.length_um;
        best = out;
      }
    }
    if (!best.valid()) break;

    const double old_width = nl.net(best).width_multiple;
    nl.net(best).width_multiple =
        std::min(sizing::kMaxWireWidth, old_width * kStep);
    const sta::TimingResult after = sta::analyze(nl, opt);
    if (after.min_period_tau < result.final_period_tau - 1e-9) {
      timing = after;
      result.final_period_tau = after.min_period_tau;
      ++result.moves;
      blocked.clear();
    } else {
      nl.net(best).width_multiple = old_width;
      blocked.insert(best.value());
    }
  }
  return result;
}

/// On every registry design under full_custom, after TILOS, widening
/// through the resident timer makes exactly the moves of the batch loop
/// and lands on the same bytes: move count, initial and final period,
/// and every net's width. The post-TILOS netlist is the flow's result
/// with every width reset to 1, since widening is the only flow pass that
/// sets widths. At the flow's own lengths every candidate is rejected
/// (and the flow's widths must match too); with every net stretched 8x,
/// most designs accept moves, so accepted-move re-timing is compared too.
TEST(WireSizingReference, TimerPathMatchesBatchLoopOnEveryDesign) {
  const core::Flow flow(tech::asic_025um());
  const core::Methodology m = core::full_custom();
  const sta::StaOptions opt = core::signoff_sta_options(m);
  int stretched_moves = 0;
  for (const std::string& name : designs::design_names()) {
    const core::FlowResult r =
        flow.run(designs::make_design(name, m.datapath), m);
    ASSERT_TRUE(r.ok()) << name;
    for (double stretch : {1.0, 8.0}) {
      SCOPED_TRACE(name + " x" + std::to_string(stretch));
      netlist::Netlist by_batch = *r.nl;
      for (NetId n : by_batch.all_nets()) {
        by_batch.net(n).width_multiple = 1.0;
        by_batch.net(n).length_um *= stretch;
      }
      netlist::Netlist by_timer = by_batch;

      const sizing::WireSizingResult want =
          widen_with_batch_sta(by_batch, opt);
      sta::IncrementalTimer timer(by_timer, opt);
      const sizing::WireSizingResult got =
          sizing::widen_critical_wires(timer);
      EXPECT_EQ(got.moves, want.moves);
      EXPECT_TRUE(same_bits(got.initial_period_tau, want.initial_period_tau));
      EXPECT_TRUE(same_bits(got.final_period_tau, want.final_period_tau));
      EXPECT_TRUE(same_bits(timer.timing().min_period_tau,
                            sta::analyze(by_timer, opt).min_period_tau));
      int differing = 0;
      for (NetId n : by_batch.all_nets()) {
        const double w = by_batch.net(n).width_multiple;
        differing += same_bits(by_timer.net(n).width_multiple, w) ? 0 : 1;
        if (stretch == 1.0)
          differing += same_bits(r.nl->net(n).width_multiple, w) ? 0 : 1;
      }
      EXPECT_EQ(differing, 0);
      if (stretch != 1.0) stretched_moves += want.moves;
    }
  }
  // The stretched reference widened nets, so the comparison bites.
  EXPECT_GT(stretched_moves, 0);
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
