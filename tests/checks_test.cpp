#include <gtest/gtest.h>

#include <algorithm>

#include "library/builders.hpp"
#include "netlist/checks.hpp"
#include "netlist/netlist.hpp"
#include "tech/technology.hpp"

namespace gap::netlist {
namespace {

using library::Family;
using library::Func;

bool mentions(const CheckResult& r, const std::string& needle) {
  return std::any_of(r.diagnostics.begin(), r.diagnostics.end(),
                     [&](const common::Diagnostic& d) {
                       return d.message.find(needle) != std::string::npos;
                     });
}

class ChecksTest : public ::testing::Test {
 protected:
  ChecksTest() : lib_(library::make_rich_asic_library(tech::asic_025um())) {}

  CellId cell(Func f) { return *lib_.smallest(f, Family::kStatic); }

  library::CellLibrary lib_;
};

TEST_F(ChecksTest, CleanNetlistHasNoDiagnostics) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId out = nl.add_net("out");
  nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_output("y", out);

  const CheckResult r = verify(nl);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST_F(ChecksTest, DanglingNetReported) {
  Netlist nl("t", &lib_);
  nl.add_input("a");
  const NetId dang = nl.add_net("dang");  // never driven
  const NetId out = nl.add_net("out");
  nl.add_instance("u1", cell(Func::kInv), {dang}, out);
  nl.add_output("y", out);

  const CheckResult r = verify(nl);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "'dang' has sinks but no driver"));
}

TEST_F(ChecksTest, CombinationalCycleReportedWithMembers) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId n1 = nl.add_net("n1");
  const NetId n2 = nl.add_net("n2");
  const InstanceId u1 =
      nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, n1);
  nl.add_instance("u2", cell(Func::kInv), {n1}, n2);
  nl.add_output("y", n2);
  nl.rewire_input(u1, 0, n2);  // u1 -> u2 -> u1

  const CheckResult r = verify(nl);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "combinational cycle"));
  EXPECT_TRUE(mentions(r, "'u1'"));
  EXPECT_TRUE(mentions(r, "'u2'"));
  EXPECT_TRUE(topo_order(nl).empty());
  EXPECT_EQ(logic_depth(nl), -1);
}

TEST_F(ChecksTest, CycleMessageIsSortedAndInsertionOrderInvariant) {
  // The member list in the cycle message is deduplicated and sorted, so
  // the same loop built in two different instance-insertion orders must
  // produce byte-identical messages.
  auto cycle_message = [&](bool u1_first) {
    Netlist nl("t", &lib_);
    const PortId a = nl.add_input("a");
    const NetId n1 = nl.add_net("n1");
    const NetId n2 = nl.add_net("n2");
    if (u1_first) {
      const InstanceId u1 =
          nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, n1);
      nl.add_instance("u2", cell(Func::kInv), {n1}, n2);
      nl.rewire_input(u1, 0, n2);
    } else {
      const InstanceId u2 =
          nl.add_instance("u2", cell(Func::kInv), {nl.port(a).net}, n2);
      nl.add_instance("u1", cell(Func::kInv), {n2}, n1);
      nl.rewire_input(u2, 0, n1);
    }
    nl.add_output("y", n2);
    const CheckResult r = verify(nl);
    for (const common::Diagnostic& d : r.diagnostics)
      if (d.message.find("combinational cycle") != std::string::npos)
        return d.message;
    return std::string();
  };

  const std::string forward = cycle_message(true);
  const std::string reverse = cycle_message(false);
  ASSERT_FALSE(forward.empty());
  EXPECT_EQ(forward, reverse);
  // Sorted member order: 'u1' before 'u2', each exactly once.
  const std::size_t u1_pos = forward.find("'u1'");
  const std::size_t u2_pos = forward.find("'u2'");
  ASSERT_NE(u1_pos, std::string::npos);
  ASSERT_NE(u2_pos, std::string::npos);
  EXPECT_LT(u1_pos, u2_pos);
  EXPECT_EQ(forward.find("'u1'", u1_pos + 1), std::string::npos);
}

TEST_F(ChecksTest, MultiplyDrivenNetReported) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const PortId b = nl.add_input("b");
  const NetId out = nl.add_net("out");
  nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_output("y", out);
  // Fabricate a contention: point input port b at the instance-driven net.
  nl.port(b).net = out;

  const CheckResult r = verify(nl);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "'out' has 2 drivers"));
}

TEST_F(ChecksTest, AllViolationsCollectedInOnePass) {
  // One netlist carrying a dangling net, a multiply-driven net, AND a
  // combinational cycle; verify() must surface every one of them.
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const PortId b = nl.add_input("b");
  const NetId dang = nl.add_net("dang");
  const NetId n1 = nl.add_net("n1");
  const NetId n2 = nl.add_net("n2");
  const InstanceId u1 =
      nl.add_instance("u1", cell(Func::kNand2), {nl.port(a).net, dang}, n1);
  nl.add_instance("u2", cell(Func::kInv), {n1}, n2);
  nl.add_output("y", n2);
  nl.rewire_input(u1, 0, n2);  // cycle u1 <-> u2
  nl.port(b).net = n1;         // n1 now claimed by u1 and port b

  const CheckResult r = verify(nl);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "'dang' has sinks but no driver"));
  EXPECT_TRUE(mentions(r, "'n1' has 2 drivers"));
  EXPECT_TRUE(mentions(r, "combinational cycle"));
  EXPECT_GE(r.diagnostics.size(), 3u);
}

TEST_F(ChecksTest, DiagnosticsCarryStructuralCodes) {
  Netlist nl("bad", &lib_);
  const NetId dang = nl.add_net("dang");
  const NetId out = nl.add_net("out");
  nl.add_instance("u1", cell(Func::kInv), {dang}, out);
  nl.add_output("y", out);

  const CheckResult r = verify(nl);
  ASSERT_FALSE(r.diagnostics.empty());
  for (const common::Diagnostic& d : r.diagnostics) {
    EXPECT_EQ(d.code, common::ErrorCode::kStructural);
    EXPECT_EQ(d.severity, common::Severity::kError);
    EXPECT_EQ(d.where, "netlist:bad");
    EXPECT_NE(d.format().find("structural"), std::string::npos);
  }
}

TEST_F(ChecksTest, PinCountMismatchReported) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId out = nl.add_net("out");
  const InstanceId u1 =
      nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_output("y", out);
  // Swap in a 2-input cell without fixing the pin list.
  nl.instance(u1).cell = cell(Func::kNand2);

  const CheckResult r = verify(nl);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "'u1' pin count mismatch"));
}

}  // namespace
}  // namespace gap::netlist
