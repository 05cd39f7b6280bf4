/// \file dataflow_test.cpp
/// Dataflow-engine suite (ctest -L dataflow): three-valued constant
/// folding, clock/reset-domain propagation with 2-flop synchronizer
/// recognition, the GL-D/GL-X rule family on the shipped example
/// fixtures, thread-count invariance of reports and lattice state,
/// incremental update_rewire/update_clock vs fresh-analysis equality,
/// counter-based "incremental re-lint is cheaper" assertions, and the
/// gapd lint mode=dataflow surface including a 100-round randomized
/// edit+undo differential.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "library/builders.hpp"
#include "lint/dataflow.hpp"
#include "lint/lint.hpp"
#include "lint/report.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "serve/server.hpp"
#include "tech/technology.hpp"

namespace gap::lint {
namespace {

using library::Family;
using library::Func;
using netlist::Netlist;

/// In-source copy of examples/lint/cdc.v (the CI lint-dataflow job lints
/// the file itself; this suite pins the same semantics in-process).
constexpr char kCdcSrc[] =
    "module cdc_core (da, db, din, rst_b, qo1, qo2, qo3, qo4, qo5);\n"
    "  input da;\n"
    "  input db;\n"
    "  input din;\n"
    "  input rst_b;\n"
    "  output qo1;\n"
    "  output qo2;\n"
    "  output qo3;\n"
    "  output qo4;\n"
    "  output qo5;\n"
    "  wire qa;\n"
    "  wire qb;\n"
    "  wire qra1;\n"
    "  wire qs1;\n"
    "  wire qs2;\n"
    "  wire n1;\n"
    "  wire n2;\n"
    "  dff_x2 src_a (.d(da), .q(qa));\n"
    "  dff_x2 src_b (.d(db), .q(qb));\n"
    "  dff_x2 ra1 (.d(qb), .q(qra1));\n"
    "  dff_x2 s1 (.d(qb), .q(qs1));\n"
    "  dff_x2 s2 (.d(qs1), .q(qs2));\n"
    "  nand2_x1 g1 (.a(qa), .b(qb), .y(n1));\n"
    "  dff_x2 rc (.d(n1), .q(qo3));\n"
    "  dff_x2 rd (.d(din), .q(qo4));\n"
    "  and2_x1 g2 (.a(rst_b), .b(qa), .y(n2));\n"
    "  dff_x2 re (.d(n2), .q(qo5));\n"
    "  inv_x2 ga (.a(qra1), .y(qo1));\n"
    "  nand2_x1 gm (.a(qra1), .b(qs2), .y(qo2));\n"
    "endmodule\n"
    "// gap: domain da a\n"
    "// gap: domain db b\n"
    "// gap: domain rst_b b\n"
    "// gap: reset rst_b 1\n"
    "// gap: phase src_b 1\n"
    "// gap: hasreset src_a 1\n"
    "// gap: hasreset src_b 1\n"
    "// gap: hasreset ra1 1\n"
    "// gap: hasreset s1 1\n"
    "// gap: hasreset s2 1\n"
    "// gap: hasreset rc 1\n"
    "// gap: hasreset rd 1\n"
    "// gap: hasreset re 1\n";

/// In-source copy of examples/lint/const.v.
constexpr char kConstSrc[] =
    "module const_core (tie0, data1, data3, qo1, qo2);\n"
    "  input tie0;\n"
    "  input data1;\n"
    "  input data3;\n"
    "  output qo1;\n"
    "  output qo2;\n"
    "  wire c1;\n"
    "  wire newdata;\n"
    "  wire md;\n"
    "  wire k;\n"
    "  inv_x2 g1 (.a(tie0), .y(c1));\n"
    "  inv_x2 g2 (.a(data3), .y(newdata));\n"
    "  mux2_x1 gm (.a(qo2), .b(newdata), .c(tie0), .y(md));\n"
    "  dff_x2 rh (.d(md), .q(qo2));\n"
    "  and2_x1 gk (.a(c1), .b(data1), .y(k));\n"
    "  dff_x2 rk (.d(k), .q(qo1));\n"
    "endmodule\n"
    "// gap: tie tie0 0\n"
    "// gap: hasreset rh 1\n";

class DataflowTest : public ::testing::Test {
 protected:
  DataflowTest()
      : lib_(library::make_rich_asic_library(tech::asic_025um())),
        registry_(default_registry()) {}

  CellId cell(Func f) {
    const auto id = lib_.smallest(f, Family::kStatic);
    EXPECT_TRUE(id.has_value());
    return *id;
  }

  Netlist parse(const std::string& src) {
    auto nl = netlist::read_verilog(src, lib_);
    EXPECT_TRUE(nl.ok()) << nl.status().to_string();
    return std::move(*nl);
  }

  LintContext ctx(const Netlist& nl) {
    LintContext c;
    c.nl = &nl;
    c.limits = tech::default_electrical_limits();
    c.constraints.period_tau = 100.0;
    return c;
  }

  static std::vector<DomainDecl> cdc_decls() { return {{"a", 0}, {"b", 1}}; }

  static LintConfig cdc_config() {
    LintConfig cfg;
    cfg.domains = cdc_decls();
    return cfg;
  }

  static int count(const LintReport& r, const std::string& id) {
    return static_cast<int>(
        std::count_if(r.findings.begin(), r.findings.end(),
                      [&](const Finding& f) { return f.rule == id; }));
  }

  static const Finding* first(const LintReport& r, const std::string& id) {
    for (const Finding& f : r.findings)
      if (f.rule == id) return &f;
    return nullptr;
  }

  static InstanceId inst_by_name(const Netlist& nl, const std::string& name) {
    for (InstanceId id : nl.all_instances())
      if (nl.instance(id).name == name) return id;
    ADD_FAILURE() << "no instance named " << name;
    return InstanceId();
  }

  static NetId net_by_name(const Netlist& nl, const std::string& name) {
    for (NetId id : nl.all_nets())
      if (nl.net(id).name == name) return id;
    ADD_FAILURE() << "no net named " << name;
    return NetId();
  }

  library::CellLibrary lib_;
  RuleRegistry registry_;
};

// --- the lattice ---------------------------------------------------------

TEST_F(DataflowTest, ConstantsFoldThroughGates) {
  Netlist nl("t", &lib_);
  const PortId t0 = nl.add_input("t0");
  nl.port(t0).tie = 0;
  const PortId t1 = nl.add_input("t1");
  nl.port(t1).tie = 1;
  const PortId a = nl.add_input("a");
  const NetId nt0 = nl.port(t0).net;
  const NetId nt1 = nl.port(t1).net;
  const NetId na = nl.port(a).net;

  const NetId n_inv = nl.add_net("n_inv");
  nl.add_instance("u_inv", cell(Func::kInv), {nt0}, n_inv);
  const NetId n_and = nl.add_net("n_and");
  nl.add_instance("u_and", cell(Func::kAnd2), {nt0, na}, n_and);
  const NetId n_nand = nl.add_net("n_nand");
  nl.add_instance("u_nand", cell(Func::kNand2), {nt0, na}, n_nand);
  const NetId n_xor = nl.add_net("n_xor");
  nl.add_instance("u_xor", cell(Func::kXor2), {nt1, nt1}, n_xor);
  const NetId n_mux = nl.add_net("n_mux");
  nl.add_instance("u_mux", cell(Func::kMux2), {na, n_inv, nt0}, n_mux);
  nl.add_output("y1", n_and);
  nl.add_output("y2", n_nand);
  nl.add_output("y3", n_xor);
  nl.add_output("y4", n_mux);

  DataflowEngine e;
  ASSERT_TRUE(e.analyze(nl, {}, 1).ok());
  EXPECT_EQ(e.state(nt0).cval, ConstVal::kZero);
  EXPECT_EQ(e.state(nt1).cval, ConstVal::kOne);
  EXPECT_EQ(e.state(n_inv).cval, ConstVal::kOne);
  EXPECT_EQ(e.state(n_and).cval, ConstVal::kZero);   // 0 controls AND
  EXPECT_EQ(e.state(n_nand).cval, ConstVal::kOne);   // 0 controls NAND
  EXPECT_EQ(e.state(n_xor).cval, ConstVal::kZero);   // 1 ^ 1
  EXPECT_EQ(e.state(n_mux).cval, ConstVal::kVarying);  // select 0 picks a
  EXPECT_EQ(e.state(na).cval, ConstVal::kVarying);
  // No registers anywhere: nothing is tainted.
  for (NetId n : nl.all_nets()) EXPECT_EQ(e.state(n).taint, 0);
}

TEST_F(DataflowTest, DomainsPropagateAndSyncHeadIsRecognized) {
  const Netlist nl = parse(kCdcSrc);
  DataflowEngine e;
  ASSERT_TRUE(e.analyze(nl, cdc_decls(), 1).ok());

  const DomainTable& t = e.domains();
  EXPECT_TRUE(t.declared());
  EXPECT_TRUE(t.enabled());
  EXPECT_TRUE(t.reset_discipline());
  const std::uint32_t ma = t.mask_of_name("a");
  const std::uint32_t mb = t.mask_of_name("b");
  ASSERT_NE(ma, kUnknownDomainBit);
  ASSERT_NE(mb, kUnknownDomainBit);
  EXPECT_EQ(t.mask_of_phase(0), ma);
  EXPECT_EQ(t.mask_of_phase(1), mb);

  // Register outputs carry only their own domain; comb logic unions.
  EXPECT_EQ(e.state(net_by_name(nl, "qa")).doms, ma);
  EXPECT_EQ(e.state(net_by_name(nl, "qb")).doms, mb);
  EXPECT_EQ(e.state(net_by_name(nl, "n1")).doms, ma | mb);
  EXPECT_EQ(e.state(net_by_name(nl, "din")).doms, kUnknownDomainBit);
  // The reset root seeds reset-domain propagation, not data domains.
  EXPECT_EQ(e.state(net_by_name(nl, "rst_b")).doms, 0u);
  EXPECT_EQ(e.state(net_by_name(nl, "rst_b")).rsts, mb);
  EXPECT_EQ(e.state(net_by_name(nl, "n2")).rsts, mb);
  // Crossing through the synchronizer head re-labels data into domain a.
  EXPECT_EQ(e.state(net_by_name(nl, "qs1")).doms, ma);
  EXPECT_EQ(e.state(net_by_name(nl, "qs2")).doms, ma);
}

// --- the GL-D / GL-X families on the shipped fixtures --------------------

TEST_F(DataflowTest, CdcFixtureFiresEachDomainRuleExactlyOnce) {
  const Netlist nl = parse(kCdcSrc);
  const LintReport r = run_lint(registry_, ctx(nl), cdc_config(), 1);

  ASSERT_EQ(r.findings.size(), 4u)
      << write_json(registry_, r, "cdc.v");
  EXPECT_EQ(count(r, "GL-D001"), 1);
  EXPECT_EQ(count(r, "GL-D002"), 1);
  EXPECT_EQ(count(r, "GL-D003"), 1);
  EXPECT_EQ(count(r, "GL-D004"), 1);

  const Finding* d1 = first(r, "GL-D001");
  ASSERT_NE(d1, nullptr);
  EXPECT_EQ(d1->anchor, AnchorKind::kInstance);
  EXPECT_EQ(d1->anchor_name, "ra1");
  EXPECT_EQ(d1->severity, common::Severity::kError);
  EXPECT_NE(d1->message.find("'b'"), std::string::npos);
  EXPECT_EQ(first(r, "GL-D002")->anchor_name, "rc");
  EXPECT_EQ(first(r, "GL-D003")->anchor_name, "rd");
  EXPECT_EQ(first(r, "GL-D004")->anchor_name, "re");
  EXPECT_EQ(r.summary.errors, 1);
  EXPECT_EQ(r.summary.warnings, 3);
}

TEST_F(DataflowTest, DomainRulesStaySilentWithoutDeclarations) {
  // Same two-phase netlist, no [[domain]] declarations and no port
  // annotations: an intentional multi-phase clocking style must not
  // trip CDC errors. (Strip the annotations by rebuilding the text up
  // to endmodule.)
  const std::string src(kCdcSrc);
  const Netlist nl = parse(src.substr(0, src.find("// gap: domain")));
  const LintReport r = run_lint(registry_, ctx(nl), {}, 1);
  for (const Finding& f : r.findings)
    EXPECT_NE(f.rule.substr(0, 4), "GL-D") << f.rule;
}

TEST_F(DataflowTest, ConstFixtureFiresEachDataflowRuleExactlyOnce) {
  const Netlist nl = parse(kConstSrc);
  const LintReport r = run_lint(registry_, ctx(nl), {}, 1);

  ASSERT_EQ(r.findings.size(), 4u)
      << write_json(registry_, r, "const.v");
  EXPECT_EQ(count(r, "GL-X001"), 1);
  EXPECT_EQ(count(r, "GL-X002"), 1);
  EXPECT_EQ(count(r, "GL-X003"), 1);
  EXPECT_EQ(count(r, "GL-X004"), 1);

  const Finding* x1 = first(r, "GL-X001");
  ASSERT_NE(x1, nullptr);
  EXPECT_EQ(x1->anchor, AnchorKind::kNet);
  EXPECT_EQ(x1->anchor_name, "c1");
  EXPECT_NE(x1->message.find("constant 1"), std::string::npos);
  EXPECT_EQ(first(r, "GL-X002")->anchor_name, "g2");
  EXPECT_EQ(first(r, "GL-X003")->anchor_name, "rh");
  EXPECT_EQ(first(r, "GL-X004")->anchor_name, "rk");
  EXPECT_EQ(r.summary.errors, 0);
}

TEST_F(DataflowTest, CombinationalCycleSilencesDataflowRules) {
  Netlist nl("loopy", &lib_);
  const PortId a = nl.add_input("a");
  nl.port(a).tie = 0;  // would be GL-X001 fodder if analysis ran
  const NetId n1 = nl.add_net("n1");
  const NetId n2 = nl.add_net("n2");
  nl.add_instance("u1", cell(Func::kNand2), {nl.port(a).net, n2}, n1);
  nl.add_instance("u2", cell(Func::kInv), {n1}, n2);
  nl.add_output("y", n2);

  DataflowEngine e;
  const common::Status st = e.analyze(nl, {}, 1);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), common::ErrorCode::kStructural);
  EXPECT_FALSE(e.valid());

  // GL-S004 owns the cycle; the dataflow families must stay silent
  // rather than report half-propagated lattice values.
  const LintReport r = run_lint(registry_, ctx(nl), {}, 1);
  EXPECT_EQ(count(r, "GL-S004"), 1);
  for (const Finding& f : r.findings) {
    EXPECT_NE(f.rule.substr(0, 4), "GL-D") << f.rule;
    EXPECT_NE(f.rule.substr(0, 4), "GL-X") << f.rule;
  }
}

// --- determinism ---------------------------------------------------------

TEST_F(DataflowTest, ReportsAndLatticeAreThreadCountInvariant) {
  const Netlist nl = parse(kCdcSrc);

  DataflowEngine serial, pooled;
  ASSERT_TRUE(serial.analyze(nl, cdc_decls(), 1).ok());
  ASSERT_TRUE(pooled.analyze(nl, cdc_decls(), 4).ok());
  for (NetId n : nl.all_nets()) {
    EXPECT_TRUE(serial.state(n) == pooled.state(n)) << nl.net(n).name;
    EXPECT_EQ(serial.observed(n), pooled.observed(n));
    EXPECT_EQ(serial.reaches_po(n), pooled.reaches_po(n));
  }
  EXPECT_EQ(serial.stats().evals, pooled.stats().evals);

  const LintReport one = run_lint(registry_, ctx(nl), cdc_config(), 1);
  const LintReport many = run_lint(registry_, ctx(nl), cdc_config(), 4);
  EXPECT_EQ(write_json(registry_, one, "cdc.v"),
            write_json(registry_, many, "cdc.v"));
  EXPECT_EQ(write_sarif(registry_, one, "cdc.v"),
            write_sarif(registry_, many, "cdc.v"));
}

TEST_F(DataflowTest, AnnotationsRoundTripThroughVerilog) {
  for (const char* src : {kCdcSrc, kConstSrc}) {
    const Netlist nl = parse(src);
    const std::string emitted = netlist::to_verilog(nl);
    const Netlist back = parse(emitted);
    // Writer output is a fixpoint, annotations included.
    EXPECT_EQ(netlist::to_verilog(back), emitted);
    for (PortId p : nl.all_ports()) {
      EXPECT_EQ(nl.port(p).domain, back.port(p).domain);
      EXPECT_EQ(nl.port(p).tie, back.port(p).tie);
      EXPECT_EQ(nl.port(p).is_reset, back.port(p).is_reset);
    }
    for (InstanceId i : nl.all_instances())
      EXPECT_EQ(nl.instance(i).has_reset, back.instance(i).has_reset);
  }
}

// --- incremental maintenance ---------------------------------------------

TEST_F(DataflowTest, UpdateRewireMatchesFreshAnalysis) {
  Netlist nl = parse(kCdcSrc);
  DataflowEngine inc;
  ASSERT_TRUE(inc.analyze(nl, cdc_decls(), 1).ok());
  const std::uint64_t full_evals = inc.stats().evals;

  // Rewire g1.b from qb (phase 1 data) to qa: rc's capture becomes
  // single-domain and GL-D002 must disappear from the incremental view.
  const InstanceId g1 = inst_by_name(nl, "g1");
  nl.rewire_input(g1, 1, net_by_name(nl, "qa"));
  ASSERT_TRUE(inc.update_rewire(nl, g1, 1).ok());
  EXPECT_TRUE(inc.valid());
  EXPECT_EQ(inc.synced_version(), nl.version());

  DataflowEngine fresh;
  ASSERT_TRUE(fresh.analyze(nl, cdc_decls(), 1).ok());
  for (NetId n : nl.all_nets()) {
    EXPECT_TRUE(inc.state(n) == fresh.state(n)) << nl.net(n).name;
    EXPECT_EQ(inc.observed(n), fresh.observed(n)) << nl.net(n).name;
    EXPECT_EQ(inc.reaches_po(n), fresh.reaches_po(n)) << nl.net(n).name;
  }

  // The cone rooted at g1 is a strict subset of the netlist.
  EXPECT_EQ(inc.stats().cone_passes, 1u);
  const std::uint64_t cone_evals = inc.stats().evals - full_evals;
  EXPECT_GT(cone_evals, 0u);
  EXPECT_LT(cone_evals, fresh.stats().evals);

  // And the rules agree byte for byte between the two engines.
  LintContext ci = ctx(nl);
  ci.dataflow = &inc;
  LintContext cf = ctx(nl);
  cf.dataflow = &fresh;
  const LintReport ri = run_lint(registry_, ci, cdc_config(), 1);
  const LintReport rf = run_lint(registry_, cf, cdc_config(), 1);
  EXPECT_EQ(write_json(registry_, ri, "cdc.v"),
            write_json(registry_, rf, "cdc.v"));
  EXPECT_EQ(count(ri, "GL-D002"), 0);
}

TEST_F(DataflowTest, UpdateClockMatchesFreshAnalysis) {
  Netlist nl = parse(kCdcSrc);
  DataflowEngine inc;
  ASSERT_TRUE(inc.analyze(nl, cdc_decls(), 1).ok());

  // Move the second synchronizer stage to phase 1: s1 loses its
  // sync-head exemption and both stages become reported crossings.
  const InstanceId s2 = inst_by_name(nl, "s2");
  nl.instance(s2).clock_phase = 1;
  ASSERT_TRUE(inc.update_clock(nl, s2, 1).ok());
  // Both phases were already in the domain table, so this must have
  // taken the incremental path, not the full-analyze fallback.
  EXPECT_EQ(inc.stats().full_sweeps, 1u);
  EXPECT_EQ(inc.stats().cone_passes, 1u);

  DataflowEngine fresh;
  ASSERT_TRUE(fresh.analyze(nl, cdc_decls(), 1).ok());
  for (NetId n : nl.all_nets())
    EXPECT_TRUE(inc.state(n) == fresh.state(n)) << nl.net(n).name;

  LintContext ci = ctx(nl);
  ci.dataflow = &inc;
  const LintReport r = run_lint(registry_, ci, cdc_config(), 1);
  EXPECT_EQ(count(r, "GL-D001"), 3);  // ra1, s1, s2
}

TEST_F(DataflowTest, ValueOnlyEditsRefreshForFree) {
  Netlist nl = parse(kCdcSrc);
  DataflowEngine e;
  ASSERT_TRUE(e.analyze(nl, cdc_decls(), 1).ok());
  const std::uint64_t evals = e.stats().evals;

  // A drive override never moves the lattice; the resident service must
  // pay zero evaluations to re-lint after it.
  nl.instance(inst_by_name(nl, "g1")).drive_override = 2.0;
  e.resync_value(nl);
  ASSERT_TRUE(e.refresh(nl, cdc_decls(), 1).ok());
  EXPECT_EQ(e.stats().evals, evals);
  EXPECT_EQ(e.stats().full_sweeps, 1u);
  EXPECT_EQ(e.stats().reuses, 1u);
}

// --- gapd: lint mode=dataflow --------------------------------------------

std::string lint_frame(const std::string& session, const std::string& mode) {
  return "{\"id\":0,\"cmd\":\"lint\",\"session\":\"" + session +
         "\",\"mode\":\"" + mode + "\"}";
}

std::string drive_frame(const std::string& session, int inst, double drive) {
  return "{\"id\":0,\"cmd\":\"edit\",\"session\":\"" + session +
         "\",\"edit\":{\"op\":\"set_drive\",\"inst\":" +
         std::to_string(inst) +
         ",\"drive\":" + common::json::number(drive) + "}}";
}

bool reply_ok(const std::string& reply) {
  const auto v = common::json::Value::parse(reply);
  if (!v) return false;
  const common::json::Value* ok = v->find("ok");
  return ok != nullptr && ok->boolean;
}

constexpr char kLoad[] =
    "{\"id\":0,\"cmd\":\"load\",\"session\":\"s1\",\"design\":\"mac8\"}";

TEST(DataflowServeTest, LintModeIsValidated) {
  serve::Server server({});
  ASSERT_TRUE(reply_ok(server.handle_line(kLoad)));
  EXPECT_TRUE(reply_ok(server.handle_line(lint_frame("s1", "scan"))));
  EXPECT_TRUE(reply_ok(server.handle_line(lint_frame("s1", "dataflow"))));
  const std::string bad = server.handle_line(lint_frame("s1", "deep"));
  EXPECT_FALSE(reply_ok(bad));
  EXPECT_NE(bad.find("invalid_value"), std::string::npos);
}

TEST(DataflowServeTest, ScanModeKeepsPreDataflowReplySurface) {
  serve::Server server({});
  ASSERT_TRUE(reply_ok(server.handle_line(kLoad)));
  const std::string implicit = server.handle_line(
      "{\"id\":0,\"cmd\":\"lint\",\"session\":\"s1\"}");
  EXPECT_EQ(implicit, server.handle_line(lint_frame("s1", "scan")));
  EXPECT_EQ(implicit.find("GL-D"), std::string::npos);
  EXPECT_EQ(implicit.find("GL-X"), std::string::npos);
}

TEST(DataflowServeTest, DataflowRepliesAreThreadCountInvariant) {
  serve::ServerOptions one;
  one.threads = 1;
  serve::ServerOptions many;
  many.threads = 4;
  serve::Server s1(one), sN(many);
  ASSERT_TRUE(reply_ok(s1.handle_line(kLoad)));
  ASSERT_TRUE(reply_ok(sN.handle_line(kLoad)));
  EXPECT_EQ(s1.handle_line(lint_frame("s1", "dataflow")),
            sN.handle_line(lint_frame("s1", "dataflow")));
  ASSERT_TRUE(reply_ok(s1.handle_line(drive_frame("s1", 3, 2.5))));
  ASSERT_TRUE(reply_ok(sN.handle_line(drive_frame("s1", 3, 2.5))));
  EXPECT_EQ(s1.handle_line(lint_frame("s1", "dataflow")),
            sN.handle_line(lint_frame("s1", "dataflow")));
}

TEST(DataflowServeTest, HundredEditUndoRoundTripsKeepVerdicts) {
  serve::Server server({});
  ASSERT_TRUE(reply_ok(server.handle_line(kLoad)));
  const std::string baseline = server.handle_line(lint_frame("s1", "dataflow"));
  ASSERT_TRUE(reply_ok(baseline));

  for (int i = 0; i < 100; ++i) {
    SCOPED_TRACE("round " + std::to_string(i));
    const int inst = 1 + (i * 7) % 16;
    const double drive = 1.0 + (i % 5) * 0.5;
    ASSERT_TRUE(reply_ok(server.handle_line(drive_frame("s1", inst, drive))));
    ASSERT_TRUE(reply_ok(server.handle_line(
        "{\"id\":0,\"cmd\":\"undo\",\"session\":\"s1\"}")));
    if (i % 10 == 9) {
      EXPECT_EQ(server.handle_line(lint_frame("s1", "dataflow")), baseline);
    }
  }
  EXPECT_EQ(server.handle_line(lint_frame("s1", "dataflow")), baseline);
}

TEST(DataflowServeTest, ResidentLintMatchesFreshReplayAfterEveryEdit) {
  // The resident session lints on its cached structural scan and
  // lattice; a second server that loads the design and replays the
  // accepted edits lints from nothing. Both must agree after every step
  // of a mix of cell swaps, rewires, drive edits and undos.
  const std::vector<std::string> cells = {"dff_x1", "dff_x2", "dff_x4",
                                          "dff_x8"};
  const std::string head =
      "{\"id\":0,\"cmd\":\"edit\",\"session\":\"s1\",\"edit\":";
  std::vector<std::string> script;
  for (int i = 0; i < 24; ++i) {
    switch (i % 4) {
      case 0:
        script.push_back(head + "{\"op\":\"replace_cell\",\"inst\":" +
                         std::to_string(3 + i % 3) + ",\"cell\":\"" +
                         cells[(i / 4) % cells.size()] + "\"}}");
        break;
      case 1:
        script.push_back(head + "{\"op\":\"rewire\",\"inst\":" +
                         std::to_string(100 + 7 * i) +
                         ",\"pin\":0,\"net\":" + std::to_string(i % 5) + "}}");
        break;
      case 2: script.push_back(drive_frame("s1", 50 + 11 * i, 2.5)); break;
      default:
        script.push_back("{\"id\":0,\"cmd\":\"undo\",\"session\":\"s1\"}");
        break;
    }
  }

  serve::Server resident({});
  ASSERT_TRUE(reply_ok(resident.handle_line(kLoad)));
  std::vector<std::string> accepted;
  int accepted_per_kind[4] = {};
  for (std::size_t i = 0; i < script.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i) + ": " + script[i]);
    if (!reply_ok(resident.handle_line(script[i]))) continue;
    accepted.push_back(script[i]);
    ++accepted_per_kind[i % 4];

    serve::Server fresh({});
    ASSERT_TRUE(reply_ok(fresh.handle_line(kLoad)));
    for (const std::string& frame : accepted)
      ASSERT_TRUE(reply_ok(fresh.handle_line(frame)));
    for (const char* mode : {"scan", "dataflow"}) {
      const std::string reply = resident.handle_line(lint_frame("s1", mode));
      ASSERT_TRUE(reply_ok(reply)) << mode;
      EXPECT_EQ(reply, fresh.handle_line(lint_frame("s1", mode))) << mode;
    }
  }
  for (int kind = 0; kind < 4; ++kind)
    EXPECT_GT(accepted_per_kind[kind], 0) << "edit kind " << kind;
}

TEST(DataflowServeTest, ValueEditRelintReusesTheCachedLattice) {
  serve::Server server({});
  ASSERT_TRUE(reply_ok(server.handle_line(kLoad)));

  common::Counter& evals = common::metrics().counter("lint.dataflow.evals");
  common::Counter& sweeps =
      common::metrics().counter("lint.dataflow.full_sweeps");
  common::Counter& reuses = common::metrics().counter("lint.dataflow.reuses");

  const std::uint64_t evals0 = evals.value();
  ASSERT_TRUE(reply_ok(server.handle_line(lint_frame("s1", "dataflow"))));
  EXPECT_GT(evals.value(), evals0);  // first lint pays the full sweep
  const std::uint64_t evals1 = evals.value();
  const std::uint64_t sweeps1 = sweeps.value();
  const std::uint64_t reuses1 = reuses.value();

  // The counter-based cheapness contract: a value-only edit plus
  // re-lint costs zero transfer evaluations and zero sweeps.
  ASSERT_TRUE(reply_ok(server.handle_line(drive_frame("s1", 3, 2.0))));
  ASSERT_TRUE(reply_ok(server.handle_line(lint_frame("s1", "dataflow"))));
  EXPECT_EQ(evals.value(), evals1);
  EXPECT_EQ(sweeps.value(), sweeps1);
  EXPECT_EQ(reuses.value(), reuses1 + 1);
}

}  // namespace
}  // namespace gap::lint
