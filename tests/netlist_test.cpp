#include <gtest/gtest.h>

#include "library/builders.hpp"
#include "netlist/checks.hpp"
#include "netlist/netlist.hpp"
#include "netlist/simulate.hpp"
#include "netlist/stats.hpp"
#include "tech/technology.hpp"

namespace gap::netlist {
namespace {

using library::Family;
using library::Func;

class NetlistTest : public ::testing::Test {
 protected:
  NetlistTest() : lib_(library::make_rich_asic_library(tech::asic_025um())) {}

  CellId cell(Func f) { return *lib_.smallest(f, Family::kStatic); }

  library::CellLibrary lib_;
};

TEST_F(NetlistTest, BuildInverter) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId out = nl.add_net("out");
  nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_output("y", out);

  EXPECT_EQ(nl.num_instances(), 1u);
  EXPECT_TRUE(verify(nl).ok());
}

TEST_F(NetlistTest, SimulateInverter) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId out = nl.add_net("out");
  nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_output("y", out);
  const auto r = simulate(nl, {0xF0F0F0F0F0F0F0F0ull});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], ~0xF0F0F0F0F0F0F0F0ull);
}

TEST_F(NetlistTest, SimulateAllCombinationalFuncs) {
  // One instance of each combinational cell, inputs shared.
  const std::uint64_t va = 0xAAAACCCCF0F0FF00ull;
  const std::uint64_t vb = 0x5555AAAA3333CCCCull;
  const std::uint64_t vc = 0x123456789ABCDEF0ull;
  struct Case {
    Func f;
    std::uint64_t expect;
  };
  const Case cases[] = {
      {Func::kNand2, ~(va & vb)},
      {Func::kNor2, ~(va | vb)},
      {Func::kXor2, va ^ vb},
      {Func::kAoi21, ~((va & vb) | vc)},
      {Func::kOai21, ~((va | vb) & vc)},
      {Func::kMux2, (vc & vb) | (~vc & va)},
      {Func::kMaj3, (va & vb) | (va & vc) | (vb & vc)},
  };
  for (const Case& c : cases) {
    Netlist nl("t", &lib_);
    const PortId pa = nl.add_input("a");
    const PortId pb = nl.add_input("b");
    const PortId pc = nl.add_input("c");
    const NetId out = nl.add_net("out");
    std::vector<NetId> ins;
    const int n = lib_.cell(cell(c.f)).num_inputs();
    ins.push_back(nl.port(pa).net);
    if (n >= 2) ins.push_back(nl.port(pb).net);
    if (n >= 3) ins.push_back(nl.port(pc).net);
    nl.add_instance("u", cell(c.f), ins, out);
    nl.add_output("y", out);
    const auto r = simulate(nl, {va, vb, vc});
    EXPECT_EQ(r[0], c.expect) << library::traits(c.f).name;
  }
}

TEST_F(NetlistTest, NetLoadSumsPinsWireAndExtra) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId mid = nl.add_net("mid");
  nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, mid);
  const NetId o1 = nl.add_net("o1");
  const NetId o2 = nl.add_net("o2");
  nl.add_instance("u2", cell(Func::kInv), {mid}, o1);
  nl.add_instance("u3", cell(Func::kNand2), {mid, o1}, o2);
  nl.add_output("y", o2, /*load_units=*/2.0);

  // mid drives: inv (g=1, d=1) + nand2 pin (g=4/3, d=1).
  EXPECT_NEAR(nl.net_load(mid), 1.0 + 4.0 / 3.0, 1e-12);

  // Adding wire length increases load by c_per_um * L / Cu.
  nl.net(mid).length_um = 100.0;
  const tech::Technology& t = lib_.technology();
  const double wire_units = t.cap_to_units(t.wire_c_ff_per_um * 100.0);
  EXPECT_NEAR(nl.net_load(mid), 1.0 + 4.0 / 3.0 + wire_units, 1e-12);

  // Output net: nothing but the declared port load.
  EXPECT_NEAR(nl.net_load(o2), 2.0, 1e-12);
}

TEST_F(NetlistTest, RewireInputMovesSink) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const PortId b = nl.add_input("b");
  const NetId out = nl.add_net("out");
  const InstanceId u1 =
      nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_output("y", out);

  nl.rewire_input(u1, 0, nl.port(b).net);
  EXPECT_TRUE(verify(nl).ok());
  EXPECT_TRUE(nl.net(nl.port(a).net).sinks.empty());
  EXPECT_EQ(nl.instance(u1).inputs[0], nl.port(b).net);
}

TEST_F(NetlistTest, ReplaceCellRepowers) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId out = nl.add_net("out");
  const InstanceId u1 =
      nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_output("y", out);

  const CellId big = *lib_.best_for_drive(Func::kInv, Family::kStatic, 8.0);
  nl.replace_cell(u1, big);
  EXPECT_DOUBLE_EQ(nl.drive_of(u1), 8.0);
  EXPECT_TRUE(verify(nl).ok());
}

TEST_F(NetlistTest, DriveOverrideWins) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId out = nl.add_net("out");
  const InstanceId u1 =
      nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_output("y", out);
  nl.instance(u1).drive_override = 2.5;
  EXPECT_DOUBLE_EQ(nl.drive_of(u1), 2.5);
  EXPECT_NEAR(nl.pin_cap(u1), 2.5, 1e-12);
}

TEST_F(NetlistTest, TopoOrderRespectsDependencies) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId n1 = nl.add_net("n1");
  const NetId n2 = nl.add_net("n2");
  const InstanceId u1 =
      nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, n1);
  const InstanceId u2 = nl.add_instance("u2", cell(Func::kInv), {n1}, n2);
  nl.add_output("y", n2);

  const auto order = topo_order(nl);
  ASSERT_EQ(order.size(), 2u);
  const auto pos1 = std::find(order.begin(), order.end(), u1);
  const auto pos2 = std::find(order.begin(), order.end(), u2);
  EXPECT_LT(pos1, pos2);
}

TEST_F(NetlistTest, LogicDepthCountsLevels) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  NetId prev = nl.port(a).net;
  for (int i = 0; i < 7; ++i) {
    const NetId next = nl.add_net("n" + std::to_string(i));
    nl.add_instance("u" + std::to_string(i), cell(Func::kInv), {prev}, next);
    prev = next;
  }
  nl.add_output("y", prev);
  EXPECT_EQ(logic_depth(nl), 7);
}

TEST_F(NetlistTest, DffBreaksCombinationalDepth) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId n1 = nl.add_net("n1");
  nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, n1);
  const NetId q = nl.add_net("q");
  nl.add_instance("r1", cell(Func::kDff), {n1}, q);
  const NetId n2 = nl.add_net("n2");
  nl.add_instance("u2", cell(Func::kInv), {q}, n2);
  nl.add_output("y", n2);

  EXPECT_EQ(nl.num_sequential(), 1u);
  EXPECT_EQ(logic_depth(nl), 1);  // each side of the flop is one level
  EXPECT_TRUE(verify(nl).ok());
}

TEST_F(NetlistTest, StatsCollect) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId n1 = nl.add_net("n1");
  nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, n1);
  nl.add_output("y", n1);
  const NetlistStats s = collect_stats(nl);
  EXPECT_EQ(s.instances, 1u);
  EXPECT_EQ(s.inputs, 1u);
  EXPECT_EQ(s.outputs, 1u);
  EXPECT_GT(s.area_um2, 0.0);
  EXPECT_EQ(s.cells_by_func.at("inv"), 1u);
}

TEST_F(NetlistTest, FreshNamesUnique) {
  Netlist nl("t", &lib_);
  EXPECT_NE(nl.fresh_name("x"), nl.fresh_name("x"));
}

}  // namespace
}  // namespace gap::netlist
