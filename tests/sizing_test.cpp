#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "datapath/adders.hpp"
#include "library/builders.hpp"
#include "netlist/checks.hpp"
#include "netlist/simulate.hpp"
#include "sizing/buffers.hpp"
#include "sizing/tilos.hpp"
#include "synth/mapper.hpp"
#include "tech/technology.hpp"

namespace gap::sizing {
namespace {

using datapath::AdderKind;
using library::Family;
using library::Func;

netlist::Netlist mapped(const library::CellLibrary& lib, AdderKind kind,
                        int width) {
  const auto aig = datapath::make_adder_aig(kind, width);
  auto nl = synth::map_to_netlist(aig, lib, synth::MapOptions{}, "d");
  // Give outputs a healthy load so sizing has something to fight.
  for (PortId p : nl.all_ports())
    if (!nl.port(p).is_input) nl.net(nl.port(p).net).extra_cap_units += 8.0;
  return nl;
}

void expect_same_function(const netlist::Netlist& a,
                          const netlist::Netlist& b) {
  Rng rng(0x51EE);
  std::size_t n_in = 0;
  for (PortId p : a.all_ports())
    if (a.port(p).is_input) ++n_in;
  for (int round = 0; round < 8; ++round) {
    std::vector<std::uint64_t> pi(n_in);
    for (auto& v : pi) v = rng.next_u64();
    EXPECT_EQ(netlist::simulate(a, pi), netlist::simulate(b, pi));
  }
}

class SizingTest : public ::testing::Test {
 protected:
  SizingTest()
      : rich_(library::make_rich_asic_library(tech::asic_025um())),
        custom_(library::make_custom_library(tech::asic_025um())) {}
  library::CellLibrary rich_;
  library::CellLibrary custom_;
};

TEST_F(SizingTest, InitialAssignmentEqualizesEffort) {
  auto nl = mapped(rich_, AdderKind::kCarryLookahead, 16);
  initial_drive_assignment(nl, 4.0);
  // Most gates should see effort within a factor ~2 of the target (the
  // discrete ladder and fanout structure allow some spread).
  std::size_t ok = 0, total = 0;
  for (InstanceId id : nl.all_instances()) {
    const double load = nl.net_load(nl.instance(id).output);
    if (load <= 0.0) continue;
    const double effort = load / nl.drive_of(id);
    ++total;
    if (effort <= 9.0) ++ok;
  }
  EXPECT_GT(static_cast<double>(ok) / static_cast<double>(total), 0.9);
}

TEST_F(SizingTest, TilosImprovesPeriod) {
  auto nl = mapped(rich_, AdderKind::kRipple, 16);
  SizingOptions opt;
  const SizingResult r = tilos_size(nl, opt);
  EXPECT_GT(r.moves, 0);
  EXPECT_LT(r.final_period_tau, r.initial_period_tau);
  EXPECT_TRUE(netlist::verify(nl).ok());
}

TEST_F(SizingTest, TilosPreservesFunction) {
  auto before = mapped(rich_, AdderKind::kCarrySelect, 8);
  auto after = mapped(rich_, AdderKind::kCarrySelect, 8);
  SizingOptions opt;
  tilos_size(after, opt);
  expect_same_function(before, after);
}

TEST_F(SizingTest, ContinuousBeatsDiscreteOnRichLib) {
  // With the custom library's continuous capability, TILOS should do at
  // least as well as discrete snapping (section 6.1: discrete penalty
  // 2-7% with a rich library).
  auto nl_d = mapped(custom_, AdderKind::kRipple, 16);
  auto nl_c = mapped(custom_, AdderKind::kRipple, 16);
  SizingOptions opt_d;
  initial_drive_assignment(nl_d);
  const SizingResult rd = tilos_size(nl_d, opt_d);
  SizingOptions opt_c;
  opt_c.continuous = true;
  initial_drive_assignment(nl_c);
  const SizingResult rc = tilos_size(nl_c, opt_c);
  EXPECT_LE(rc.final_period_tau, rd.final_period_tau * 1.08);
}

TEST_F(SizingTest, RecoverAreaKeepsTiming) {
  auto nl = mapped(rich_, AdderKind::kCarryLookahead, 16);
  initial_drive_assignment(nl);
  SizingOptions opt;
  const SizingResult r = tilos_size(nl, opt);
  // Relax by 10% and recover area.
  const double period = r.final_period_tau * 1.10;
  const double saved = recover_area(nl, opt, period);
  EXPECT_GE(saved, 0.0);
  const auto slacks = sta::net_slacks(nl, opt.sta, period);
  for (double s : slacks) EXPECT_GE(s, -1e-6);
}

TEST_F(SizingTest, RecoverAreaActuallySavesWhenOversized) {
  auto nl = mapped(rich_, AdderKind::kRipple, 8);
  // Oversize everything massively.
  for (InstanceId id : nl.all_instances()) {
    const library::Cell& c = nl.cell_of(id);
    const auto& ids = nl.lib().cells_of(c.func, c.family);
    if (!ids.empty()) nl.replace_cell(id, ids.back());
  }
  SizingOptions opt;
  const auto timing = sta::analyze(nl, opt.sta);
  const double saved = recover_area(nl, opt, timing.min_period_tau * 1.5);
  EXPECT_GT(saved, 0.0);
}

TEST_F(SizingTest, BufferInsertionSplitsHotNets) {
  auto nl = mapped(rich_, AdderKind::kRipple, 8);
  // Create a pathological fanout: one input drives everything.
  double max_load_before = 0.0;
  for (NetId n : nl.all_nets())
    max_load_before = std::max(max_load_before, nl.net_load(n));

  netlist::Netlist fan("fan", &rich_);
  const PortId a = fan.add_input("a");
  const CellId inv = *rich_.smallest(Func::kInv, Family::kStatic);
  for (int i = 0; i < 64; ++i) {
    const NetId o = fan.add_net("o" + std::to_string(i));
    fan.add_instance("u" + std::to_string(i), inv, {fan.port(a).net}, o);
    fan.add_output("y" + std::to_string(i), o, 0.0);
  }
  const BufferResult r = insert_buffers(fan, 16.0);
  EXPECT_GT(r.buffers_inserted, 0);
  EXPECT_TRUE(netlist::verify(fan).ok());
  for (NetId n : fan.all_nets())
    EXPECT_LE(fan.net_load(n), 24.0) << fan.net(n).name;
}

TEST_F(SizingTest, BufferInsertionPreservesFunction) {
  auto before = mapped(rich_, AdderKind::kKoggeStone, 8);
  auto after = mapped(rich_, AdderKind::kKoggeStone, 8);
  insert_buffers(after, 6.0);  // aggressive: many splits
  EXPECT_TRUE(netlist::verify(after).ok());
  expect_same_function(before, after);
}

TEST_F(SizingTest, BufferInsertionWorksWithoutBufCell) {
  // Poor library has no buffer: inverter pairs must be used.
  const auto poor = library::make_poor_asic_library(tech::asic_025um());
  netlist::Netlist fan("fan", &poor);
  const PortId a = fan.add_input("a");
  const CellId inv = *poor.smallest(Func::kInv, Family::kStatic);
  for (int i = 0; i < 64; ++i) {
    const NetId o = fan.add_net("o" + std::to_string(i));
    fan.add_instance("u" + std::to_string(i), inv, {fan.port(a).net}, o);
    fan.add_output("y" + std::to_string(i), o, 0.0);
  }
  const BufferResult r = insert_buffers(fan, 16.0);
  EXPECT_GE(r.buffers_inserted, 2);
  EXPECT_TRUE(netlist::verify(fan).ok());
  // Inverter pairs preserve polarity.
  std::vector<std::uint64_t> pi = {0xAAAA5555FFFF0000ull};
  for (std::uint64_t out : netlist::simulate(fan, pi))
    EXPECT_EQ(out, ~0xAAAA5555FFFF0000ull);
}

}  // namespace
}  // namespace gap::sizing
