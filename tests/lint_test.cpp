#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "json_lint.hpp"
#include "library/builders.hpp"
#include "library/liberty.hpp"
#include "lint/lint.hpp"
#include "lint/lint_cli.hpp"
#include "lint/report.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "tech/technology.hpp"

namespace gap::lint {
namespace {

using common::cli::kExitIo;
using common::cli::kExitOk;
using common::cli::kExitUsage;
using library::Family;
using library::Func;
using netlist::Netlist;

class LintTest : public ::testing::Test {
 protected:
  LintTest()
      : lib_(library::make_rich_asic_library(tech::asic_025um())),
        registry_(default_registry()) {}

  CellId cell(Func f) { return *lib_.smallest(f, Family::kStatic); }

  /// Context with a sane period so GL-K001 stays quiet unless a test
  /// deliberately removes it.
  LintContext ctx(const Netlist& nl) {
    LintContext c;
    c.nl = &nl;
    c.limits = tech::default_electrical_limits();
    c.constraints.period_tau = 100.0;
    return c;
  }

  LintReport run(const Netlist& nl, const LintConfig& config = {},
                 int threads = 1) {
    return run_lint(registry_, ctx(nl), config, threads);
  }

  static bool fired(const LintReport& r, const std::string& id) {
    return std::any_of(r.findings.begin(), r.findings.end(),
                       [&](const Finding& f) {
                         return f.rule == id && !f.waived;
                       });
  }

  static const Finding* first(const LintReport& r, const std::string& id) {
    for (const Finding& f : r.findings)
      if (f.rule == id) return &f;
    return nullptr;
  }

  library::CellLibrary lib_;
  RuleRegistry registry_;
};

// --- structural rules ----------------------------------------------------

TEST_F(LintTest, CleanNetlistHasNoFindings) {
  Netlist nl("clean", &lib_);
  const PortId a = nl.add_input("a");
  const NetId out = nl.add_net("out");
  nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_output("y", out);

  const LintReport r = run(nl);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.summary.errors, 0);
  EXPECT_EQ(r.summary.warnings, 0);
  EXPECT_EQ(r.summary.notes, 0);
  EXPECT_EQ(r.summary.waived, 0);
  EXPECT_FALSE(r.has_errors());
}

TEST_F(LintTest, MultiplyDrivenNetFires) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const PortId b = nl.add_input("b");
  const NetId out = nl.add_net("out");
  nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_output("y", out);
  nl.port(b).net = out;  // contention: port b claims the driven net

  const LintReport r = run(nl);
  const Finding* f = first(r, "GL-S001");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->anchor, AnchorKind::kNet);
  EXPECT_EQ(f->anchor_name, "out");
  EXPECT_EQ(f->severity, common::Severity::kError);
  EXPECT_TRUE(r.has_errors());
}

TEST_F(LintTest, UndrivenNetFires) {
  Netlist nl("t", &lib_);
  const NetId dang = nl.add_net("dang");
  const NetId out = nl.add_net("out");
  nl.add_instance("u1", cell(Func::kInv), {dang}, out);
  nl.add_output("y", out);

  const LintReport r = run(nl);
  const Finding* f = first(r, "GL-S002");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->anchor, AnchorKind::kNet);
  EXPECT_EQ(f->anchor_name, "dang");
}

TEST_F(LintTest, PinConnectivityFiresFromLenientParse) {
  const std::string src =
      "module t (a, y);\n"
      "  input a;\n"
      "  output y;\n"
      "  inv_x1 u1 (.y(y));\n"  // floating input pin
      "  inv_x1 u2 (.a(a));\n"  // unconnected output pin
      "endmodule\n";
  auto parsed = netlist::read_verilog_lenient(src, lib_);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->violations.size(), 2u);

  LintContext c = ctx(parsed->nl);
  c.parse_violations = &parsed->violations;
  const LintReport r = run_lint(registry_, c, {}, 1);
  int hits = 0;
  for (const Finding& f : r.findings)
    if (f.rule == "GL-S003") {
      ++hits;
      EXPECT_EQ(f.anchor, AnchorKind::kInstance);
      EXPECT_TRUE(f.loc.line > 0);  // parse findings carry source locations
    }
  EXPECT_EQ(hits, 2);
}

TEST_F(LintTest, ParsedMultiplyDrivenAnchorsToNet) {
  // The lenient reader severs the second driver; GL-S001 must still
  // report it, anchored to the *net* so net-kind waivers apply.
  const std::string src =
      "module t (a, b, y);\n"
      "  input a;\n"
      "  input b;\n"
      "  output y;\n"
      "  inv_x1 u1 (.a(a), .y(y));\n"
      "  inv_x1 u2 (.a(b), .y(y));\n"
      "endmodule\n";
  auto parsed = netlist::read_verilog_lenient(src, lib_);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();

  LintContext c = ctx(parsed->nl);
  c.parse_violations = &parsed->violations;
  const LintReport r = run_lint(registry_, c, {}, 1);
  const Finding* f = first(r, "GL-S001");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->anchor, AnchorKind::kNet);
  EXPECT_EQ(f->anchor_name, "y");
}

TEST_F(LintTest, CombinationalCycleFiresOnDesign) {
  Netlist nl("loopy", &lib_);
  const PortId a = nl.add_input("a");
  const NetId n1 = nl.add_net("n1");
  const NetId n2 = nl.add_net("n2");
  const InstanceId u1 =
      nl.add_instance("u1", cell(Func::kNand2), {nl.port(a).net, n2}, n1);
  nl.add_instance("u2", cell(Func::kInv), {n1}, n2);
  nl.add_output("y", n2);
  (void)u1;

  const LintReport r = run(nl);
  const Finding* f = first(r, "GL-S004");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->anchor, AnchorKind::kDesign);
  EXPECT_EQ(f->anchor_name, "loopy");
  EXPECT_NE(f->message.find("'u1'"), std::string::npos);
  EXPECT_NE(f->message.find("'u2'"), std::string::npos);
}

TEST_F(LintTest, UnloadedNetAndUnreachableInstanceFire) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId out = nl.add_net("out");
  const NetId dead = nl.add_net("dead");
  nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_instance("dbg", cell(Func::kInv), {nl.port(a).net}, dead);
  nl.add_output("y", out);

  const LintReport r = run(nl);
  const Finding* unloaded = first(r, "GL-S005");
  ASSERT_NE(unloaded, nullptr);
  EXPECT_EQ(unloaded->anchor_name, "dead");
  const Finding* unreachable = first(r, "GL-S006");
  ASSERT_NE(unreachable, nullptr);
  EXPECT_EQ(unreachable->anchor, AnchorKind::kInstance);
  EXPECT_EQ(unreachable->anchor_name, "dbg");
}

// --- electrical rules ----------------------------------------------------

TEST_F(LintTest, FanoutPastDefaultLimitFires) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId hub = nl.add_net("hub");
  nl.add_instance("drv", cell(Func::kInv), {nl.port(a).net}, hub);
  for (int i = 0; i < 17; ++i) {  // default max_fanout is 16
    const NetId o = nl.add_net("o" + std::to_string(i));
    nl.add_instance("s" + std::to_string(i), cell(Func::kInv), {hub}, o);
    nl.add_output("y" + std::to_string(i), o);
  }

  const LintReport r = run(nl);
  const Finding* f = first(r, "GL-E001");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->anchor_name, "hub");
  EXPECT_NE(f->message.find("17"), std::string::npos);
}

TEST_F(LintTest, LoadPastDriveLimitFires) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId out = nl.add_net("out");
  nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_output("y", out, 1.0);
  nl.net(out).extra_cap_units = 60.0;  // default limit: 48 units per drive

  const LintReport r = run(nl);
  const Finding* f = first(r, "GL-E002");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->anchor_name, "out");
  EXPECT_NE(f->message.find("limit of 48"), std::string::npos);
}

TEST_F(LintTest, SlowTransitionFiresWithoutOverload) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId out = nl.add_net("out");
  const auto x2 = lib_.find("inv_x2");
  ASSERT_TRUE(x2.has_value());
  nl.add_instance("u1", *x2, {nl.port(a).net}, out);
  // drive 2: load 85 stays under the 2*48 cap limit but the slew proxy
  // 85/2 = 42.5 tau crosses the default 40 tau transition limit.
  nl.add_output("y", out, 85.0);

  const LintReport r = run(nl);
  EXPECT_FALSE(fired(r, "GL-E002"));
  const Finding* f = first(r, "GL-E003");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->anchor_name, "out");
}

TEST_F(LintTest, WeakDriverOnLongWireFires) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId out = nl.add_net("out");
  nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_output("y", out);
  nl.net(out).length_um = 900.0;  // past the 800 um long-wire threshold

  const LintReport r = run(nl);
  const Finding* f = first(r, "GL-E004");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->anchor_name, "out");
}

TEST_F(LintTest, LibertyMaxAttributesOverrideTechDefaults) {
  // A cell with its own Liberty max_* limits far below the technology
  // defaults: the per-cell numbers must win.
  const tech::Technology t = tech::asic_025um();
  library::CellLibrary lib("limited", t);
  library::Cell plain;
  plain.name = "inv";
  plain.func = Func::kInv;
  lib.add(plain);
  library::Cell lim;
  lim.name = "limited_inv";
  lim.func = Func::kInv;
  lim.drive = 4.0;
  lim.max_capacitance_ff = 8.0;  // 4 unit caps — default would be 4*48
  lim.max_transition_ps = 18.0;  // 1 tau — default would be 40
  lim.max_fanout = 1.0;          // default would be 16
  const CellId lim_id = lib.add(lim);

  Netlist nl("t", &lib);
  const PortId a = nl.add_input("a");
  const NetId hub = nl.add_net("hub");
  nl.add_instance("drv", lim_id, {nl.port(a).net}, hub);
  for (int i = 0; i < 2; ++i) {
    const NetId o = nl.add_net("o" + std::to_string(i));
    nl.add_instance("s" + std::to_string(i), *lib.find("inv"), {hub}, o);
    nl.add_output("y" + std::to_string(i), o);
  }
  nl.net(hub).extra_cap_units = 4.0;  // total load 6 > cell cap limit 4

  LintContext c;
  c.nl = &nl;
  c.limits = tech::default_electrical_limits();
  c.constraints.period_tau = 100.0;
  const LintReport r = run_lint(registry_, c, {}, 1);
  EXPECT_TRUE(fired(r, "GL-E001"));  // fanout 2 > cell limit 1
  const Finding* cap = first(r, "GL-E002");
  ASSERT_NE(cap, nullptr);
  EXPECT_NE(cap->message.find("limit of 4"), std::string::npos);
  EXPECT_TRUE(fired(r, "GL-E003"));  // slew 6/4 = 1.5 tau > cell limit 1
}

// --- clock rules ---------------------------------------------------------

TEST_F(LintTest, ClockPhaseOutOfRangeFires) {
  Netlist nl("t", &lib_);
  const PortId d = nl.add_input("d");
  const NetId q = nl.add_net("q");
  const InstanceId r0 =
      nl.add_instance("r0", cell(Func::kDff), {nl.port(d).net}, q);
  nl.add_output("y", q);
  nl.instance(r0).clock_phase = lib_.clock_phases;  // one past the end

  const LintReport r = run(nl);
  const Finding* f = first(r, "GL-C001");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->anchor_name, "r0");
}

TEST_F(LintTest, MixedSequentialStylesFire) {
  Netlist nl("t", &lib_);
  const PortId d = nl.add_input("d");
  const NetId q1 = nl.add_net("q1");
  const NetId q2 = nl.add_net("q2");
  nl.add_instance("r0", cell(Func::kDff), {nl.port(d).net}, q1);
  nl.add_instance("l0", cell(Func::kLatch), {nl.port(d).net}, q2);
  nl.add_output("y1", q1);
  nl.add_output("y2", q2);

  const LintReport r = run(nl);
  const Finding* f = first(r, "GL-C002");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->anchor, AnchorKind::kDesign);
  EXPECT_NE(f->message.find("1 flip-flop(s)"), std::string::npos);
  EXPECT_NE(f->message.find("1 latch(es)"), std::string::npos);
}

TEST_F(LintTest, RegistersUnreachableFromInputsFire) {
  Netlist nl("t", &lib_);
  const NetId qa = nl.add_net("qa");
  const NetId qb = nl.add_net("qb");
  const InstanceId ra = nl.add_instance("ra", cell(Func::kDff), {qb}, qa);
  nl.add_instance("rb", cell(Func::kDff), {qa}, qb);
  nl.add_output("y", qa);
  (void)ra;

  const LintReport r = run(nl);
  int hits = 0;
  for (const Finding& f : r.findings)
    if (f.rule == "GL-C003") ++hits;
  EXPECT_EQ(hits, 2);
}

// --- constraint rules ----------------------------------------------------

TEST_F(LintTest, MissingAndNonPositivePeriodFire) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId out = nl.add_net("out");
  nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_output("y", out);

  LintContext c = ctx(nl);
  c.constraints.period_tau.reset();
  const LintReport none = run_lint(registry_, c, {}, 1);
  EXPECT_TRUE(std::any_of(none.findings.begin(), none.findings.end(),
                          [](const Finding& f) { return f.rule == "GL-K001"; }));

  c.constraints.period_tau = -5.0;
  const LintReport neg = run_lint(registry_, c, {}, 1);
  EXPECT_TRUE(std::any_of(neg.findings.begin(), neg.findings.end(),
                          [](const Finding& f) { return f.rule == "GL-K002"; }));
  EXPECT_FALSE(std::any_of(neg.findings.begin(), neg.findings.end(),
                           [](const Finding& f) { return f.rule == "GL-K001"; }));
}

TEST_F(LintTest, DegeneratePortModelsFire) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a", 0.0);  // zero external drive
  const NetId out = nl.add_net("out");
  nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_output("y", out, 0.0);  // zero external load

  const LintReport r = run(nl);
  int hits = 0;
  for (const Finding& f : r.findings)
    if (f.rule == "GL-K003") {
      ++hits;
      EXPECT_EQ(f.anchor, AnchorKind::kPort);
    }
  EXPECT_EQ(hits, 2);
}

// --- overrides and waivers ----------------------------------------------

TEST_F(LintTest, SeverityOverridesApplyAndOffDisables) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId dead = nl.add_net("dead");
  nl.add_instance("dbg", cell(Func::kInv), {nl.port(a).net}, dead);
  const NetId out = nl.add_net("out");
  nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_output("y", out);

  LintConfig promote;
  promote.rule_levels.emplace_back("GL-S005", SeverityOverride::kError);
  const LintReport up = run(nl, promote);
  const Finding* f = first(up, "GL-S005");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, common::Severity::kError);
  EXPECT_TRUE(up.has_errors());

  LintConfig off;
  off.rule_levels.emplace_back("GL-S005", SeverityOverride::kOff);
  const LintReport quiet = run(nl, off);
  EXPECT_EQ(first(quiet, "GL-S005"), nullptr);

  // Last override wins.
  LintConfig both;
  both.rule_levels.emplace_back("GL-S005", SeverityOverride::kOff);
  both.rule_levels.emplace_back("GL-S005", SeverityOverride::kNote);
  const LintReport note = run(nl, both);
  const Finding* n = first(note, "GL-S005");
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->severity, common::Severity::kNote);
  EXPECT_EQ(note.summary.notes, 1);
}

TEST_F(LintTest, WaiverSuppressesExactlyItsAnchor) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId dbg_a = nl.add_net("dbg_a");
  const NetId dbg_b = nl.add_net("dbg_b");
  nl.add_instance("ua", cell(Func::kInv), {nl.port(a).net}, dbg_a);
  nl.add_instance("ub", cell(Func::kInv), {nl.port(a).net}, dbg_b);
  const NetId out = nl.add_net("out");
  nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_output("y", out);

  LintConfig cfg;
  cfg.waivers.push_back(
      {"GL-S005", AnchorKind::kNet, "dbg_a", "bring-up probe"});
  const LintReport r = run(nl, cfg);
  EXPECT_EQ(r.summary.waived, 1);
  bool saw_waived = false, saw_live = false;
  for (const Finding& f : r.findings) {
    if (f.rule != "GL-S005") continue;
    if (f.anchor_name == "dbg_a") {
      saw_waived = true;
      EXPECT_TRUE(f.waived);
      EXPECT_EQ(f.waiver_justification, "bring-up probe");
    }
    if (f.anchor_name == "dbg_b") {
      saw_live = true;
      EXPECT_FALSE(f.waived);
    }
  }
  EXPECT_TRUE(saw_waived);
  EXPECT_TRUE(saw_live);

  // A glob waiver catches both; a kind mismatch catches neither.
  LintConfig glob;
  glob.waivers.push_back({"GL-S005", AnchorKind::kNet, "dbg_*", "probes"});
  EXPECT_EQ(run(nl, glob).summary.waived, 2);

  LintConfig wrong_kind;
  wrong_kind.waivers.push_back(
      {"GL-S005", AnchorKind::kInstance, "dbg_*", "probes"});
  EXPECT_EQ(run(nl, wrong_kind).summary.waived, 0);
}

TEST_F(LintTest, GlobMatchSemantics) {
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("abc", "abc"));
  EXPECT_FALSE(glob_match("abc", "abd"));
  EXPECT_TRUE(glob_match("a*c", "ac"));
  EXPECT_TRUE(glob_match("a*c", "abbbc"));
  EXPECT_FALSE(glob_match("a*c", "ab"));
  EXPECT_TRUE(glob_match("*mid*", "has mid in it"));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("", ""));
}

// --- config parsing ------------------------------------------------------

TEST_F(LintTest, ConfigParsesFullExample) {
  const std::string text =
      "# example config\n"
      "[rules]\n"
      "GL-S005 = \"off\"\n"
      "GL-E001 = \"error\"\n"
      "\n"
      "[constraints]\n"
      "period_tau = 40\n"
      "skew_fraction = 0.1\n"
      "\n"
      "[[domain]]\n"
      "name = \"core\"\n"
      "phase = 0\n"
      "\n"
      "[[domain]]\n"
      "name = \"io\"\n"
      "phase = 1\n"
      "\n"
      "[[waive]]\n"
      "rule = \"GL-S006\"\n"
      "instance = \"dbg_*\"\n"
      "justify = \"scan stubs\"\n";
  auto cfg = parse_config(text, registry_);
  ASSERT_TRUE(cfg.ok()) << cfg.status().to_string();
  ASSERT_EQ(cfg->rule_levels.size(), 2u);
  EXPECT_EQ(cfg->rule_levels[0].first, "GL-S005");
  EXPECT_EQ(cfg->rule_levels[0].second, SeverityOverride::kOff);
  EXPECT_EQ(cfg->rule_levels[1].second, SeverityOverride::kError);
  ASSERT_TRUE(cfg->constraints.period_tau.has_value());
  EXPECT_DOUBLE_EQ(*cfg->constraints.period_tau, 40.0);
  ASSERT_TRUE(cfg->constraints.skew_fraction.has_value());
  EXPECT_DOUBLE_EQ(*cfg->constraints.skew_fraction, 0.1);
  ASSERT_EQ(cfg->domains.size(), 2u);
  EXPECT_EQ(cfg->domains[0].name, "core");
  EXPECT_EQ(cfg->domains[0].phase, 0);
  EXPECT_EQ(cfg->domains[1].name, "io");
  EXPECT_EQ(cfg->domains[1].phase, 1);
  ASSERT_EQ(cfg->waivers.size(), 1u);
  EXPECT_EQ(cfg->waivers[0].rule, "GL-S006");
  EXPECT_EQ(cfg->waivers[0].kind, AnchorKind::kInstance);
  EXPECT_EQ(cfg->waivers[0].pattern, "dbg_*");
  EXPECT_EQ(cfg->waivers[0].justify, "scan stubs");
}

TEST_F(LintTest, ConfigRejectsMalformedInput) {
  struct Case {
    const char* text;
    common::ErrorCode code;
  };
  const Case cases[] = {
      // Unknown rule id.
      {"[rules]\nGL-X999 = \"off\"\n", common::ErrorCode::kUnknownName},
      // Bad severity level.
      {"[rules]\nGL-S001 = \"loud\"\n", common::ErrorCode::kInvalidValue},
      // Waiver without justification.
      {"[[waive]]\nrule = \"GL-S005\"\nnet = \"x\"\n",
       common::ErrorCode::kMissingValue},
      // Empty justification is as bad as a missing one.
      {"[[waive]]\nrule = \"GL-S005\"\nnet = \"x\"\njustify = \"\"\n",
       common::ErrorCode::kInvalidValue},
      // Two anchors on one waiver.
      {"[[waive]]\nrule = \"GL-S005\"\nnet = \"x\"\ninstance = \"u\"\n"
       "justify = \"j\"\n",
       common::ErrorCode::kDuplicate},
      // Malformed number.
      {"[constraints]\nperiod_tau = fast\n", common::ErrorCode::kParse},
      // Non-finite numbers used to slip past every constraint rule.
      {"[constraints]\nperiod_tau = 1e999\n", common::ErrorCode::kInvalidValue},
      {"[constraints]\nperiod_tau = nan\n", common::ErrorCode::kInvalidValue},
      {"[constraints]\nskew_fraction = -inf\n",
       common::ErrorCode::kInvalidValue},
      // The number rule argv follows: no hex, hex float or leading '+'.
      {"[constraints]\nperiod_tau = 0x28\n", common::ErrorCode::kParse},
      {"[constraints]\nperiod_tau = +40\n", common::ErrorCode::kParse},
      {"[constraints]\nperiod_tau = 0x1.4p5\n", common::ErrorCode::kParse},
      {"[[domain]]\nphase = 0x28\n", common::ErrorCode::kParse},
      {"[[domain]]\nphase = +40\n", common::ErrorCode::kParse},
      {"[[domain]]\nphase = 0x1.4p5\n", common::ErrorCode::kParse},
      {"[[domain]]\nphase = 1e999\n", common::ErrorCode::kParse},
      {"[[domain]]\nphase = 256\n", common::ErrorCode::kInvalidValue},
  };
  for (const Case& c : cases) {
    auto cfg = parse_config(c.text, registry_);
    ASSERT_FALSE(cfg.ok()) << c.text;
    EXPECT_EQ(cfg.status().code(), c.code) << c.text;
    EXPECT_GT(cfg.status().loc().line, 0) << c.text;
  }
}

// --- reports and determinism ---------------------------------------------

TEST_F(LintTest, ReportsAreByteIdenticalAcrossThreadCounts) {
  // A netlist that trips several rules in different categories.
  Netlist nl("messy", &lib_);
  const PortId a = nl.add_input("a", 0.0);
  const NetId dead = nl.add_net("dead");
  nl.add_instance("dbg", cell(Func::kInv), {nl.port(a).net}, dead);
  const NetId q = nl.add_net("q");
  nl.add_instance("r0", cell(Func::kDff), {nl.port(a).net}, q);
  const NetId lq = nl.add_net("lq");
  nl.add_instance("l0", cell(Func::kLatch), {nl.port(a).net}, lq);
  nl.add_output("y", q);
  nl.add_output("z", lq);

  LintConfig cfg;
  cfg.waivers.push_back({"GL-S005", AnchorKind::kNet, "dead", "probe"});

  const LintReport one = run(nl, cfg, 1);
  const LintReport many = run(nl, cfg, 4);
  const std::string json1 = write_json(registry_, one, "messy.v");
  const std::string jsonN = write_json(registry_, many, "messy.v");
  EXPECT_EQ(json1, jsonN);
  const std::string sarif1 = write_sarif(registry_, one, "messy.v");
  const std::string sarifN = write_sarif(registry_, many, "messy.v");
  EXPECT_EQ(sarif1, sarifN);

  EXPECT_TRUE(gap::testing::JsonLint::valid(json1));
  EXPECT_TRUE(gap::testing::JsonLint::valid(sarif1));
  EXPECT_NE(sarif1.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif1.find("\"suppressions\""), std::string::npos);
  EXPECT_NE(sarif1.find("probe"), std::string::npos);
  EXPECT_NE(json1.find("gap-lint-report-v1"), std::string::npos);
}

TEST_F(LintTest, TextReportCarriesSummaryAndWaivers) {
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId dead = nl.add_net("dead");
  nl.add_instance("dbg", cell(Func::kInv), {nl.port(a).net}, dead);
  const NetId out = nl.add_net("out");
  nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_output("y", out);

  LintConfig cfg;
  cfg.waivers.push_back({"GL-S005", AnchorKind::kNet, "dead", "probe"});
  const LintReport r = run(nl, cfg);
  const std::string text = format_text(registry_, r, "t.v");
  EXPECT_NE(text.find("waived[GL-S005]"), std::string::npos);
  EXPECT_NE(text.find("[waiver: probe]"), std::string::npos);
  EXPECT_NE(text.find("0 error(s)"), std::string::npos);
  EXPECT_NE(text.find("1 waived"), std::string::npos);
}

// --- finding deduplication -----------------------------------------------

TEST_F(LintTest, DuplicateNetFindingsCollapseToTheLocatedCopy) {
  // The structural scan and the lenient reader's repair pass can both
  // report the same defect on the same net; the report must carry it
  // once, preferring the copy with a source location.
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const PortId b = nl.add_input("b");
  const NetId out = nl.add_net("out");
  nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_output("y", out);
  nl.port(b).net = out;  // contention: the scan rule fires on "out"

  netlist::VerilogViolation v;
  v.kind = netlist::VerilogViolation::Kind::kMultiplyDriven;
  v.net = "out";
  v.loc.line = 5;
  v.message = "net 'out' is multiply driven";
  const std::vector<netlist::VerilogViolation> violations = {v};

  LintContext c = ctx(nl);
  c.parse_violations = &violations;
  for (int threads : {1, 4}) {
    const LintReport r = run_lint(registry_, c, {}, threads);
    int hits = 0;
    for (const Finding& f : r.findings)
      if (f.rule == "GL-S001") {
        ++hits;
        EXPECT_EQ(f.loc.line, 5);  // the located copy survives
      }
    EXPECT_EQ(hits, 1) << "threads=" << threads;
  }
}

// --- one structural scan per run -----------------------------------------

std::uint64_t structural_scans() {
  return common::metrics().counter("lint.structural_scans").value();
}

std::string slurp(const std::string& rel) {
  std::ifstream in(std::string(GAP_SOURCE_DIR) + "/" + rel, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST_F(LintTest, BatchRunScansTheStructureOnce) {
  // GL-S001..GL-S004 read one shared scan per run, at any thread count;
  // with the whole structural family off there is nothing to scan for.
  Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const PortId b = nl.add_input("b");
  const NetId out = nl.add_net("out");
  nl.add_instance("u1", cell(Func::kInv), {nl.port(a).net}, out);
  nl.add_output("y", out);
  nl.port(b).net = out;  // contention: GL-S001 fires on "out"

  for (int threads : {1, 8}) {
    const std::uint64_t before = structural_scans();
    EXPECT_TRUE(fired(run(nl, {}, threads), "GL-S001"));
    EXPECT_EQ(structural_scans() - before, 1u) << "threads=" << threads;
  }

  LintConfig off;
  for (const char* id :
       {"GL-S001", "GL-S002", "GL-S003", "GL-S004", "GL-S005", "GL-S006"})
    off.rule_levels.emplace_back(id, SeverityOverride::kOff);
  const std::uint64_t before = structural_scans();
  EXPECT_FALSE(fired(run(nl, off, 8), "GL-S001"));
  EXPECT_EQ(structural_scans() - before, 0u);
}

TEST(LintScanTest, SuppliedStructureGivesTheSameReportWithoutAScan) {
  // A caller-supplied scan (gapd's resident one) must lint exactly like
  // the scan run_lint() would take itself, and must not be retaken.
  const RuleRegistry registry = default_registry();
  auto lib = library::read_liberty(slurp("examples/lint/broken.lib"));
  ASSERT_TRUE(lib.ok()) << lib.status().to_string();
  auto config = parse_config(slurp("examples/lint/broken.toml"), registry);
  ASSERT_TRUE(config.ok()) << config.status().to_string();
  auto parsed =
      netlist::read_verilog_lenient(slurp("examples/lint/broken.v"), *lib);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();

  LintContext c;
  c.nl = &parsed->nl;
  c.limits = tech::default_electrical_limits();
  c.constraints = config->constraints;
  c.parse_violations = &parsed->violations;
  ASSERT_FALSE(parsed->violations.empty());
  const LintReport fresh = run_lint(registry, c, *config, 1);

  const std::vector<netlist::StructuralViolation> scan =
      netlist::structural_scan(parsed->nl);
  ASSERT_FALSE(scan.empty());
  c.structure = &scan;
  for (int threads : {1, 8}) {
    const std::uint64_t before = structural_scans();
    const LintReport cached = run_lint(registry, c, *config, threads);
    EXPECT_EQ(structural_scans() - before, 0u) << "threads=" << threads;
    EXPECT_EQ(write_json(registry, cached, "broken.v"),
              write_json(registry, fresh, "broken.v"))
        << "threads=" << threads;
  }
}

// --- catalog self-consistency --------------------------------------------

TEST_F(LintTest, SarifRuleCatalogStaysInSyncWithTheRegistry) {
  const LintReport empty;
  const std::string sarif = write_sarif(registry_, empty, "x.v");
  const auto doc = common::json::Value::parse(sarif);
  ASSERT_TRUE(doc.has_value());
  const auto* runs = doc->find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 1u);
  const auto* tool = runs->array[0].find("tool");
  ASSERT_NE(tool, nullptr);
  const auto* driver = tool->find("driver");
  ASSERT_NE(driver, nullptr);
  const auto* rules = driver->find("rules");
  ASSERT_NE(rules, nullptr);

  ASSERT_EQ(rules->array.size(), registry_.size());
  for (std::size_t i = 0; i < registry_.size(); ++i) {
    const RuleInfo& info = registry_.rule(i).info();
    const common::json::Value& r = rules->array[i];
    EXPECT_EQ(r.member_string("id", ""), info.id);
    const auto* sd = r.find("shortDescription");
    ASSERT_NE(sd, nullptr) << info.id;
    EXPECT_EQ(sd->member_string("text", ""), info.title);
    const auto* dc = r.find("defaultConfiguration");
    ASSERT_NE(dc, nullptr) << info.id;
    const char* level =
        info.default_severity == common::Severity::kNote      ? "note"
        : info.default_severity == common::Severity::kWarning ? "warning"
                                                              : "error";
    EXPECT_EQ(dc->member_string("level", ""), level) << info.id;
    const auto* props = r.find("properties");
    ASSERT_NE(props, nullptr) << info.id;
    EXPECT_EQ(props->member_string("category", ""), to_string(info.category))
        << info.id;
  }
}

// --- the gaplint CLI, driven in-process ----------------------------------

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult cli(const std::vector<std::string>& args) {
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const std::string& a : args) argv.push_back(a.c_str());
  std::ostringstream out, err;
  CliResult r;
  r.code = run_gaplint(static_cast<int>(argv.size()), argv.data(), out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
}

constexpr char kCleanModule[] =
    "module clean_core (d_in, q_out);\n"
    "  input d_in;\n"
    "  output q_out;\n"
    "  wire q0;\n"
    "  wire n1;\n"
    "  dff_x2 r0 (.d(d_in), .q(q0));\n"
    "  inv_x2 u0 (.a(q0), .y(n1));\n"
    "  dff_x2 r1 (.d(n1), .q(q_out));\n"
    "endmodule\n";

TEST(LintCliTest, ListRulesShowsWholeCatalog) {
  const CliResult r = cli({"--list-rules"});
  EXPECT_EQ(r.code, kExitOk);
  const RuleRegistry reg = default_registry();
  for (std::size_t i = 0; i < reg.size(); ++i)
    EXPECT_NE(r.out.find(reg.rule(i).info().id), std::string::npos)
        << reg.rule(i).info().id;
}

TEST(LintCliTest, ListRulesJsonMatchesTheRegistry) {
  const CliResult r = cli({"--list-rules", "--format", "json"});
  EXPECT_EQ(r.code, kExitOk);
  const auto doc = common::json::Value::parse(r.out);
  ASSERT_TRUE(doc.has_value()) << r.out;
  EXPECT_EQ(doc->member_string("schema", ""), "gap-lint-rules-v1");
  const auto* rules = doc->find("rules");
  ASSERT_NE(rules, nullptr);
  const RuleRegistry reg = default_registry();
  ASSERT_EQ(rules->array.size(), reg.size());
  for (std::size_t i = 0; i < reg.size(); ++i) {
    const RuleInfo& info = reg.rule(i).info();
    EXPECT_EQ(rules->array[i].member_string("id", ""), info.id);
    EXPECT_EQ(rules->array[i].member_string("category", ""),
              to_string(info.category));
    EXPECT_EQ(rules->array[i].member_string("default_severity", ""),
              common::to_string(info.default_severity));
    EXPECT_EQ(rules->array[i].member_string("title", ""), info.title);
  }

  // The SARIF catalog is part of every sarif report; --list-rules only
  // speaks text and json.
  EXPECT_EQ(cli({"--list-rules", "--format", "sarif"}).code, kExitUsage);
}

TEST(LintCliTest, CleanDesignExitsZero) {
  const std::string path = "lint_cli_clean.v";
  write_file(path, kCleanModule);
  const CliResult r = cli({path, "--period-tau", "40"});
  EXPECT_EQ(r.code, kExitOk);
  EXPECT_NE(r.out.find("0 error(s), 0 warning(s)"), std::string::npos);
  std::remove(path.c_str());
}

TEST(LintCliTest, ErrorFindingExitsOne) {
  const std::string path = "lint_cli_bad.v";
  write_file(path,
             "module t (a, b, y);\n"
             "  input a;\n"
             "  input b;\n"
             "  output y;\n"
             "  inv_x1 u1 (.a(a), .y(y));\n"
             "  inv_x1 u2 (.a(b), .y(y));\n"
             "endmodule\n");
  const CliResult r = cli({path, "--period-tau", "40"});
  EXPECT_EQ(r.code, kExitFindings);
  EXPECT_NE(r.out.find("GL-S001"), std::string::npos);
  std::remove(path.c_str());
}

TEST(LintCliTest, UsageErrorsExitTwo) {
  EXPECT_EQ(cli({}).code, kExitUsage);
  EXPECT_EQ(cli({"x.v", "--no-such-flag"}).code, kExitUsage);
  EXPECT_EQ(cli({"x.v", "--format", "xml"}).code, kExitUsage);
  EXPECT_EQ(cli({"x.v", "--threads"}).code, kExitUsage);
}

TEST(LintCliTest, NonFiniteConstraintsAreRejected) {
  // --period-tau 1e999 used to produce a clean lint and exit 0.
  const std::string v = "lint_cli_nonfinite.v";
  write_file(v, kCleanModule);
  for (const char* flag : {"--period-tau", "--skew-fraction"}) {
    for (const char* x : {"nan", "inf", "-inf", "1e999"}) {
      const CliResult r = cli({v, flag, x});
      EXPECT_EQ(r.code, kExitUsage) << flag << ' ' << x;
      EXPECT_NE(r.err.find("finite"), std::string::npos) << r.err;
    }
  }
  // The same hole in a [constraints] line is a config error.
  const std::string cfg = "lint_cli_nonfinite.toml";
  write_file(cfg, "[constraints]\nperiod_tau = 1e999\n");
  const CliResult from_config = cli({v, "--config", cfg});
  EXPECT_EQ(from_config.code, kExitParse);
  EXPECT_NE(from_config.err.find("invalid-value"), std::string::npos)
      << from_config.err;
  // A finite negative period still reaches the constraint rule.
  const CliResult negative = cli({v, "--period-tau", "-5"});
  EXPECT_EQ(negative.code, kExitFindings);
  EXPECT_NE(negative.out.find("GL-K002"), std::string::npos);
  std::remove(v.c_str());
  std::remove(cfg.c_str());
}

TEST(LintCliTest, ThreadsOutsideZeroTo1024ExitTwo) {
  // 4294967297 used to be truncated by the int cast to 1 and accepted.
  const std::string v = "lint_cli_threads.v";
  write_file(v, kCleanModule);
  for (const char* n : {"4294967297", "1025", "-1", "99999999999999999999"}) {
    const CliResult r = cli({v, "--threads", n});
    EXPECT_EQ(r.code, kExitUsage) << n;
    EXPECT_NE(r.err.find("bad --threads"), std::string::npos) << r.err;
  }
  EXPECT_EQ(cli({v, "--threads", "8"}).code, kExitOk);
  EXPECT_EQ(cli({v, "--threads", "0"}).code, kExitOk);
  std::remove(v.c_str());
}

TEST(LintCliTest, UnparsableInputsExitThree) {
  const std::string v = "lint_cli_garbage.v";
  write_file(v, "module t (a;\n nonsense\n");
  EXPECT_EQ(cli({v}).code, kExitParse);

  const std::string good = "lint_cli_ok.v";
  write_file(good, kCleanModule);
  const std::string cfg = "lint_cli_bad.toml";
  write_file(cfg, "[rules]\nGL-X999 = \"off\"\n");
  const CliResult r = cli({good, "--config", cfg});
  EXPECT_EQ(r.code, kExitParse);
  EXPECT_NE(r.err.find("GL-X999"), std::string::npos);

  std::remove(v.c_str());
  std::remove(good.c_str());
  std::remove(cfg.c_str());
}

TEST(LintCliTest, MissingFilesExitFive) {
  EXPECT_EQ(cli({"no_such_file_anywhere.v"}).code, kExitIo);
  const std::string good = "lint_cli_ok2.v";
  write_file(good, kCleanModule);
  EXPECT_EQ(cli({good, "--out", "no_such_dir/out.json"}).code, kExitIo);
  std::remove(good.c_str());
}

TEST(LintCliTest, JsonOutputLandsInFileAndLints) {
  const std::string v = "lint_cli_json.v";
  write_file(v, kCleanModule);
  const std::string out = "lint_cli_json.out";
  const CliResult r = cli({v, "--period-tau", "40", "--format", "json",
                           "--out", out});
  EXPECT_EQ(r.code, kExitOk);
  std::ifstream in(out);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_TRUE(gap::testing::JsonLint::valid(ss.str()));
  EXPECT_NE(ss.str().find("gap-lint-report-v1"), std::string::npos);
  std::remove(v.c_str());
  std::remove(out.c_str());
}

}  // namespace
}  // namespace gap::lint
