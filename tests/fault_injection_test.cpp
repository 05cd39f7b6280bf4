/// \file fault_injection_test.cpp
/// Robustness harness for the untrusted-input readers: mutate well-formed
/// Liberty and Verilog text (truncation, bit flips, token scrambles,
/// splices, garbage insertion) and prove that no mutant ever aborts the
/// process — every rejection is a Status with an error code, a source
/// location, and the right subsystem tag, and unmutated inputs round-trip
/// bit-identically. Command lines get the same treatment: argv mutants of
/// all five CLIs must exit with one of the tool's documented codes. Runs
/// standalone via `ctest -L fault`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/driver.hpp"
#include "datapath/adders.hpp"
#include "library/builders.hpp"
#include "library/liberty.hpp"
#include "lint/lint.hpp"
#include "lint/lint_cli.hpp"
#include "netlist/verilog.hpp"
#include "obs/stat_cli.hpp"
#include "pipeline/pipeline.hpp"
#include "qor/manifest.hpp"
#include "qor/report_cli.hpp"
#include "serve/serve_cli.hpp"
#include "sta/incremental.hpp"
#include "synth/mapper.hpp"
#include "tech/technology.hpp"

namespace gap {
namespace {

using common::ErrorCode;
using common::Status;
using datapath::AdderKind;
using library::CellLibrary;

// --- mutation engine -------------------------------------------------------

std::string truncate(const std::string& s, Rng& rng) {
  if (s.empty()) return s;
  return s.substr(0, rng.uniform_index(s.size()));
}

std::string bit_flip(std::string s, Rng& rng) {
  if (s.empty()) return s;
  const int flips = 1 + static_cast<int>(rng.uniform_index(8));
  for (int i = 0; i < flips; ++i) {
    const std::size_t at = rng.uniform_index(s.size());
    s[at] = static_cast<char>(s[at] ^ (1u << rng.uniform_index(8)));
  }
  return s;
}

std::string token_scramble(const std::string& s, Rng& rng) {
  struct Span {
    std::size_t begin, end;
  };
  std::vector<Span> spans;
  std::size_t i = 0;
  while (i < s.size()) {
    if (std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
      continue;
    }
    const std::size_t b = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i])))
      ++i;
    spans.push_back({b, i});
  }
  if (spans.size() < 2) return s;
  std::size_t x = rng.uniform_index(spans.size());
  std::size_t y = rng.uniform_index(spans.size());
  if (x == y) y = (y + 1) % spans.size();
  if (x > y) std::swap(x, y);
  const std::string tx = s.substr(spans[x].begin, spans[x].end - spans[x].begin);
  const std::string ty = s.substr(spans[y].begin, spans[y].end - spans[y].begin);
  return s.substr(0, spans[x].begin) + ty +
         s.substr(spans[x].end, spans[y].begin - spans[x].end) + tx +
         s.substr(spans[y].end);
}

std::string splice(const std::string& s, Rng& rng) {
  if (s.size() < 4) return s;
  const std::size_t len = 1 + rng.uniform_index(s.size() / 2);
  const std::size_t from = rng.uniform_index(s.size() - len + 1);
  const std::size_t to = rng.uniform_index(s.size());
  return s.substr(0, to) + s.substr(from, len) + s.substr(to);
}

std::string insert_garbage(const std::string& s, Rng& rng) {
  static const char kJunk[] =
      "(){};:.\"\\,*/!@#$%^&-+=0123456789abcxyz_ \n\t";
  const std::size_t n = 1 + rng.uniform_index(16);
  std::string g;
  for (std::size_t i = 0; i < n; ++i)
    g += kJunk[rng.uniform_index(sizeof(kJunk) - 1)];
  const std::size_t at = rng.uniform_index(s.size() + 1);
  return s.substr(0, at) + g + s.substr(at);
}

std::string mutate(const std::string& base, Rng& rng) {
  switch (rng.uniform_index(5)) {
    case 0: return truncate(base, rng);
    case 1: return bit_flip(base, rng);
    case 2: return token_scramble(base, rng);
    case 3: return splice(base, rng);
    default: return insert_garbage(base, rng);
  }
}

/// A rejection must carry a real error code, a source location, and the
/// subsystem tag — and must come from validation, never from a captured
/// contract failure or an unexpected exception.
void expect_well_formed_rejection(const Status& s, const char* where) {
  EXPECT_NE(s.code(), ErrorCode::kOk);
  EXPECT_NE(s.code(), ErrorCode::kContract)
      << "parser leaked a contract failure: " << s.message();
  EXPECT_NE(s.code(), ErrorCode::kInternal)
      << "parser leaked an exception: " << s.message();
  EXPECT_TRUE(s.loc().valid()) << s.message();
  EXPECT_EQ(s.where(), where);
  EXPECT_FALSE(s.message().empty());
}

std::string replace_first(std::string s, const std::string& from,
                          const std::string& to) {
  const std::size_t at = s.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) s.replace(at, from.size(), to);
  return s;
}

// --- corpora ---------------------------------------------------------------

/// A small library whose cells carry Liberty max_* limits, so the
/// electrical attributes are part of the mutated (and round-tripped)
/// corpus.
CellLibrary limited_library() {
  const tech::Technology t = tech::asic_025um();
  CellLibrary lib("limited", t);
  library::Cell c;
  c.name = "inv_lim";
  c.func = library::Func::kInv;
  c.drive = 2.0;
  c.max_capacitance_ff = 8.0;
  c.max_transition_ps = 36.0;
  c.max_fanout = 4.0;
  lib.add(c);
  return lib;
}

std::vector<std::string> liberty_corpus() {
  const tech::Technology t = tech::asic_025um();
  CellLibrary rich = library::make_rich_asic_library(t);
  library::add_domino_cells(rich);
  return {library::to_liberty(rich),
          library::to_liberty(library::make_custom_library(t)),
          library::to_liberty(library::make_poor_asic_library(t)),
          library::to_liberty(limited_library())};
}

struct VerilogCorpus {
  CellLibrary lib;
  std::vector<std::string> texts;
};

VerilogCorpus verilog_corpus() {
  VerilogCorpus c{library::make_rich_asic_library(tech::asic_025um()), {}};
  const auto rip = datapath::make_adder_aig(AdderKind::kRipple, 4);
  const auto cla = datapath::make_adder_aig(AdderKind::kCarryLookahead, 8);
  auto nl1 = synth::map_to_netlist(rip, c.lib, synth::MapOptions{}, "add4");
  auto nl2 = synth::map_to_netlist(cla, c.lib, synth::MapOptions{}, "cla8");
  pipeline::PipelineOptions popt;
  popt.stages = 2;
  auto piped = pipeline::pipeline_insert(nl1, popt).nl;

  // A small design carrying every annotation directive (domain/tie/reset
  // on ports, phase/hasreset on registers), so the mutation and
  // round-trip corpora cover the dataflow engine's input surface.
  netlist::Netlist anno("anno", &c.lib);
  const PortId d0 = anno.add_input("d0");
  anno.port(d0).domain = "core";
  const PortId t0 = anno.add_input("t0");
  anno.port(t0).tie = 0;
  const PortId rst = anno.add_input("rst");
  anno.port(rst).is_reset = true;
  anno.port(rst).domain = "io";
  const NetId q0 = anno.add_net("q0");
  const auto dff = c.lib.smallest(library::Func::kDff, library::Family::kStatic);
  const auto and2 =
      c.lib.smallest(library::Func::kAnd2, library::Family::kStatic);
  const InstanceId r0 =
      anno.add_instance("r0", *dff, {anno.port(d0).net}, q0);
  anno.instance(r0).clock_phase = 1;
  anno.instance(r0).has_reset = true;
  const NetId g0 = anno.add_net("g0");
  anno.add_instance("g1", *and2, {q0, anno.port(rst).net}, g0);
  const NetId g2n = anno.add_net("g2n");
  anno.add_instance("g2", *and2, {g0, anno.port(t0).net}, g2n);
  anno.add_output("y", g2n);

  c.texts = {netlist::to_verilog(nl1), netlist::to_verilog(nl2),
             netlist::to_verilog(piped), netlist::to_verilog(anno)};
  return c;
}

// --- the harness -----------------------------------------------------------

TEST(FaultInjectionTest, MutatedLibertyNeverAborts) {
  const std::vector<std::string> corpus = liberty_corpus();
  int rejected = 0;
  for (int i = 0; i < 300; ++i) {
    Rng rng = Rng::stream(0xFA017'11B, static_cast<std::uint64_t>(i));
    std::string text = corpus[rng.uniform_index(corpus.size())];
    const int rounds = 1 + static_cast<int>(rng.uniform_index(3));
    for (int r = 0; r < rounds; ++r) text = mutate(text, rng);
    SCOPED_TRACE("liberty mutant #" + std::to_string(i));
    const auto result = library::read_liberty(text);
    if (!result.ok()) {
      ++rejected;
      expect_well_formed_rejection(result.status(), "liberty");
    }
  }
  // Most mutants must actually be rejected, or the harness tests nothing.
  EXPECT_GT(rejected, 100);
}

TEST(FaultInjectionTest, MutatedVerilogNeverAborts) {
  const VerilogCorpus corpus = verilog_corpus();
  int rejected = 0;
  for (int i = 0; i < 300; ++i) {
    Rng rng = Rng::stream(0xFA017'BEE, static_cast<std::uint64_t>(i));
    std::string text = corpus.texts[rng.uniform_index(corpus.texts.size())];
    const int rounds = 1 + static_cast<int>(rng.uniform_index(3));
    for (int r = 0; r < rounds; ++r) text = mutate(text, rng);
    SCOPED_TRACE("verilog mutant #" + std::to_string(i));
    const auto result = netlist::read_verilog(text, corpus.lib);
    if (!result.ok()) {
      ++rejected;
      expect_well_formed_rejection(result.status(), "verilog");
    }
  }
  EXPECT_GT(rejected, 100);
}

TEST(FaultInjectionTest, UnmutatedLibertyRoundTripsBitIdentically) {
  for (const std::string& text : liberty_corpus()) {
    const auto lib = library::read_liberty(text);
    ASSERT_TRUE(lib.ok()) << lib.status().to_string();
    EXPECT_EQ(library::to_liberty(*lib), text);
  }
}

TEST(FaultInjectionTest, UnmutatedVerilogRoundTripsBitIdentically) {
  const VerilogCorpus corpus = verilog_corpus();
  for (const std::string& text : corpus.texts) {
    const auto nl = netlist::read_verilog(text, corpus.lib);
    ASSERT_TRUE(nl.ok()) << nl.status().to_string();
    EXPECT_EQ(netlist::to_verilog(*nl), text);
  }
}

// --- targeted mutations: each fault class maps to its documented code ------

TEST(FaultInjectionTest, LibertyTargetedFaultsCarrySpecificCodes) {
  const std::string good = liberty_corpus().front();

  const auto empty = library::read_liberty("");
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), ErrorCode::kParse);
  expect_well_formed_rejection(empty.status(), "liberty");

  const auto unterminated = library::read_liberty("library (x) {");
  ASSERT_FALSE(unterminated.ok());
  EXPECT_EQ(unterminated.status().code(), ErrorCode::kParse);

  const auto bad_func =
      library::read_liberty(replace_first(good, "gap_func : \"inv\"",
                                          "gap_func : \"warp_core\""));
  ASSERT_FALSE(bad_func.ok());
  EXPECT_EQ(bad_func.status().code(), ErrorCode::kUnknownName);
  EXPECT_TRUE(bad_func.status().loc().valid());

  const auto bad_phases = library::read_liberty(
      replace_first(good, "gap_clock_phases : ", "gap_clock_phases : -"));
  ASSERT_FALSE(bad_phases.ok());
  EXPECT_EQ(bad_phases.status().code(), ErrorCode::kInvalidValue);

  // Duplicate the first cell group's name in a fresh trailing cell.
  const std::size_t cell_at = good.find("cell (");
  ASSERT_NE(cell_at, std::string::npos);
  const std::size_t name_b = cell_at + 6;
  const std::size_t name_e = good.find(')', name_b);
  const std::string cell_name = good.substr(name_b, name_e - name_b);
  const std::size_t close = good.rfind('}');
  const std::string dup = good.substr(0, close) + "  cell (" + cell_name +
                          ") { gap_drive : 1; }\n" + good.substr(close);
  const auto duplicated = library::read_liberty(dup);
  ASSERT_FALSE(duplicated.ok());
  EXPECT_EQ(duplicated.status().code(), ErrorCode::kDuplicate);
  EXPECT_TRUE(duplicated.status().loc().valid());

  const auto bad_drive = library::read_liberty(
      replace_first(good, "gap_drive : 1;", "gap_drive : -2;"));
  ASSERT_FALSE(bad_drive.ok());
  EXPECT_EQ(bad_drive.status().code(), ErrorCode::kInvalidValue);

  // Electrical limits must be validated like every other attribute.
  const auto bad_max = library::read_liberty(
      replace_first(library::to_liberty(limited_library()),
                    "max_capacitance : 8", "max_capacitance : -8"));
  ASSERT_FALSE(bad_max.ok());
  EXPECT_EQ(bad_max.status().code(), ErrorCode::kInvalidValue);
  EXPECT_TRUE(bad_max.status().loc().valid());
}

TEST(FaultInjectionTest, VerilogTargetedFaultsCarrySpecificCodes) {
  const CellLibrary lib = library::make_rich_asic_library(tech::asic_025um());
  netlist::Netlist tiny("t", &lib);
  const PortId a = tiny.add_input("a");
  const NetId out = tiny.add_net("out");
  tiny.add_instance("u1",
                    *lib.smallest(library::Func::kInv, library::Family::kStatic),
                    {tiny.port(a).net}, out);
  tiny.add_output("y", out);
  const std::string good = netlist::to_verilog(tiny);

  const auto empty = netlist::read_verilog("", lib);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), ErrorCode::kParse);
  expect_well_formed_rejection(empty.status(), "verilog");

  const auto unknown_net =
      netlist::read_verilog(replace_first(good, "(.a(a)", "(.a(phantom)"), lib);
  ASSERT_FALSE(unknown_net.ok());
  EXPECT_EQ(unknown_net.status().code(), ErrorCode::kUnknownName);
  EXPECT_TRUE(unknown_net.status().loc().valid());

  const auto unknown_pin =
      netlist::read_verilog(replace_first(good, "(.a(a)", "(.zz(a)"), lib);
  ASSERT_FALSE(unknown_pin.ok());
  EXPECT_EQ(unknown_pin.status().code(), ErrorCode::kUnknownName);

  const auto redeclared =
      netlist::read_verilog(replace_first(good, "  input a;",
                                          "  input a;\n  input a;"),
                            lib);
  ASSERT_FALSE(redeclared.ok());
  EXPECT_EQ(redeclared.status().code(), ErrorCode::kDuplicate);

  const auto dangling_pin =
      netlist::read_verilog(replace_first(good, ".a(a), ", ""), lib);
  ASSERT_FALSE(dangling_pin.ok());
  EXPECT_EQ(dangling_pin.status().code(), ErrorCode::kStructural);

  const std::size_t em = good.find("endmodule");
  ASSERT_NE(em, std::string::npos);
  const std::size_t u1_at = good.find(" u1 (");
  ASSERT_NE(u1_at, std::string::npos);
  const std::size_t inst_b = good.rfind('\n', u1_at) + 1;
  const std::string inst_line =
      good.substr(inst_b, good.find('\n', inst_b) + 1 - inst_b);
  const std::string twice_driven =
      good.substr(0, em) +
      replace_first(inst_line, " u1 ", " u2 ") + good.substr(em);
  const auto multi = netlist::read_verilog(twice_driven, lib);
  ASSERT_FALSE(multi.ok());
  EXPECT_EQ(multi.status().code(), ErrorCode::kStructural);
  EXPECT_NE(multi.status().message().find("multiply driven"),
            std::string::npos);
}

// --- the one number rule: hex, '+', hex floats and overflow -------------

/// Numbers argv already refuses; no file reader may read them either.
constexpr const char* kNonDecimal[] = {"0x28", "+40", "0x1.4p5", "1e999"};

/// `text` with the value after the first `key` (up to the next ';' or
/// newline) replaced by `value`, and where that value now starts.
std::pair<std::string, common::SourceLoc> with_value(
    const std::string& text, const std::string& key, const std::string& value) {
  const std::size_t at = text.find(key);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return {text, {}};
  const std::size_t b = at + key.size();
  const std::size_t line_start = text.rfind('\n', b) + 1;  // npos + 1 == 0
  const auto line = 1 + std::count(text.begin(), text.begin() + b, '\n');
  return {text.substr(0, b) + value + text.substr(text.find_first_of(";\n", b)),
          {static_cast<int>(line), static_cast<int>(b - line_start) + 1}};
}

/// A rejection coded `code` that points at `loc`.
void expect_rejected_at(const Status& s, ErrorCode code,
                        common::SourceLoc loc) {
  EXPECT_EQ(s.code(), code) << s.to_string();
  EXPECT_TRUE(s.loc().valid()) << s.to_string();
  EXPECT_EQ(s.loc().line, loc.line) << s.to_string();
  EXPECT_EQ(s.loc().column, loc.column) << s.to_string();
}

TEST(FaultInjectionTest, LibertyNumbersFollowTheOneNumberRule) {
  const std::string good = liberty_corpus().front();
  for (const char* bad : kNonDecimal) {
    for (const char* key : {"area : ", "gap_drive : ", "gap_vdd_v : "}) {
      SCOPED_TRACE(std::string(key) + bad);
      const auto [text, loc] = with_value(good, key, bad);
      const auto r = library::read_liberty(text);
      ASSERT_FALSE(r.ok());
      expect_rejected_at(r.status(), ErrorCode::kInvalidValue, loc);
      EXPECT_EQ(r.status().where(), "liberty");
    }
  }
}

TEST(FaultInjectionTest, VerilogDirectiveNumbersFollowTheOneNumberRule) {
  const CellLibrary lib = library::make_rich_asic_library(tech::asic_025um());
  netlist::Netlist nl("t", &lib);
  const PortId a = nl.add_input("a", 2.0);
  const NetId out = nl.add_net("out");
  nl.add_instance("u1",
                  *lib.smallest(library::Func::kInv, library::Family::kStatic),
                  {nl.port(a).net}, out);
  nl.add_output("y", out);
  nl.net(out).extra_cap_units = 3.0;
  nl.net(out).length_um = 177.0;
  const std::string good = netlist::to_verilog(nl);
  ASSERT_TRUE(netlist::read_verilog(good, lib).ok());
  for (const char* bad : kNonDecimal) {
    for (const char* key :
         {"// gap: drive a ", "// gap: load y ", "// gap: length y "}) {
      SCOPED_TRACE(std::string(key) + bad);
      const auto [text, loc] = with_value(good, key, bad);
      const auto r = netlist::read_verilog(text, lib);
      ASSERT_FALSE(r.ok());
      expect_rejected_at(r.status(), ErrorCode::kInvalidValue, loc);
      EXPECT_EQ(r.status().where(), "verilog");
    }
  }
}

// --- gaplint inputs: config, lenient Verilog, and the rules themselves -----

TEST(FaultInjectionTest, MutatedLintConfigNeverAborts) {
  const lint::RuleRegistry registry = lint::default_registry();
  const std::string base =
      "# fixture config\n"
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
      "rule = \"GL-S001\"\n"
      "net = \"dbg_*\"\n"
      "justify = \"bring-up probe\"\n";
  int rejected = 0;
  for (int i = 0; i < 300; ++i) {
    Rng rng = Rng::stream(0xFA017'C0F, static_cast<std::uint64_t>(i));
    std::string text = base;
    const int rounds = 1 + static_cast<int>(rng.uniform_index(3));
    for (int r = 0; r < rounds; ++r) text = mutate(text, rng);
    SCOPED_TRACE("config mutant #" + std::to_string(i));
    const auto cfg = lint::parse_config(text, registry);
    if (!cfg.ok()) {
      ++rejected;
      expect_well_formed_rejection(cfg.status(), "gaplint-config");
    }
  }
  EXPECT_GT(rejected, 100);
}

TEST(FaultInjectionTest, MutatedLenientVerilogNeverAbortsAndLintsSafely) {
  // The lenient reader repairs what it can and rejects the rest; whatever
  // it accepts, the full rule catalog must analyze without aborting.
  const VerilogCorpus corpus = verilog_corpus();
  const lint::RuleRegistry registry = lint::default_registry();
  int rejected = 0;
  int linted = 0;
  for (int i = 0; i < 300; ++i) {
    Rng rng = Rng::stream(0xFA017'1E2, static_cast<std::uint64_t>(i));
    std::string text = corpus.texts[rng.uniform_index(corpus.texts.size())];
    const int rounds = 1 + static_cast<int>(rng.uniform_index(3));
    for (int r = 0; r < rounds; ++r) text = mutate(text, rng);
    SCOPED_TRACE("lenient verilog mutant #" + std::to_string(i));
    const auto result = netlist::read_verilog_lenient(text, corpus.lib);
    if (!result.ok()) {
      ++rejected;
      expect_well_formed_rejection(result.status(), "verilog");
      continue;
    }
    lint::LintContext ctx;
    ctx.nl = &result->nl;
    ctx.limits = tech::default_electrical_limits();
    ctx.parse_violations = &result->violations;
    const lint::LintReport report = lint::run_lint(registry, ctx, {}, 1);
    EXPECT_GE(report.findings.size(), result->violations.size());
    ++linted;
  }
  EXPECT_GT(rejected, 100);

  // Random mutants mostly break the syntax outright, so exercise the
  // accept path with structured mutants the reader is built to repair:
  // drop one named pin connection (", .pin(net)") per mutant.
  for (int i = 0; i < 50; ++i) {
    Rng rng = Rng::stream(0xFA017'1E3, static_cast<std::uint64_t>(i));
    std::string text = corpus.texts[rng.uniform_index(corpus.texts.size())];
    std::vector<std::size_t> spots;
    for (std::size_t at = text.find(", ."); at != std::string::npos;
         at = text.find(", .", at + 1))
      spots.push_back(at);
    ASSERT_FALSE(spots.empty());
    const std::size_t at = spots[rng.uniform_index(spots.size())];
    const std::size_t close = text.find(')', at);
    ASSERT_NE(close, std::string::npos);
    text.erase(at, close - at + 1);

    SCOPED_TRACE("pin-drop mutant #" + std::to_string(i));
    const auto result = netlist::read_verilog_lenient(text, corpus.lib);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_FALSE(result->violations.empty());
    lint::LintContext ctx;
    ctx.nl = &result->nl;
    ctx.limits = tech::default_electrical_limits();
    ctx.parse_violations = &result->violations;
    const lint::LintReport report = lint::run_lint(registry, ctx, {}, 1);
    // Every repaired pin shows up as a GL-S003 (or GL-S001) finding.
    EXPECT_GE(report.findings.size(), result->violations.size());
    ++linted;
  }
  EXPECT_GT(linted, 50);
}

TEST(FaultInjectionTest, DomainConfigFaultsCarrySpecificCodes) {
  const lint::RuleRegistry registry = lint::default_registry();
  struct Case {
    const char* text;
    ErrorCode code;
  };
  const Case cases[] = {
      // A domain needs both halves of the name<->phase binding.
      {"[[domain]]\nname = \"a\"\n", ErrorCode::kMissingValue},
      {"[[domain]]\nphase = 1\n", ErrorCode::kMissingValue},
      // Empty names declare nothing.
      {"[[domain]]\nname = \"\"\nphase = 0\n", ErrorCode::kInvalidValue},
      // Phases are small non-negative integers.
      {"[[domain]]\nname = \"a\"\nphase = fast\n", ErrorCode::kParse},
      {"[[domain]]\nname = \"a\"\nphase = 700\n", ErrorCode::kInvalidValue},
      // One name, one phase, each bound once.
      {"[[domain]]\nname = \"a\"\nphase = 0\n"
       "[[domain]]\nname = \"a\"\nphase = 1\n",
       ErrorCode::kDuplicate},
      {"[[domain]]\nname = \"a\"\nphase = 0\n"
       "[[domain]]\nname = \"b\"\nphase = 0\n",
       ErrorCode::kDuplicate},
      // Unknown keys are typos, not extensions.
      {"[[domain]]\nname = \"a\"\nphase = 0\ncolor = \"red\"\n",
       ErrorCode::kUnknownName},
  };
  for (const Case& c : cases) {
    const auto cfg = lint::parse_config(c.text, registry);
    ASSERT_FALSE(cfg.ok()) << c.text;
    EXPECT_EQ(cfg.status().code(), c.code) << c.text;
    expect_well_formed_rejection(cfg.status(), "gaplint-config");
  }
}

TEST(FaultInjectionTest, AnnotationDirectiveFaultsCarrySpecificCodes) {
  const CellLibrary lib = library::make_rich_asic_library(tech::asic_025um());
  const std::string good =
      "module t (a, y);\n"
      "  input a;\n"
      "  output y;\n"
      "  dff_x2 r0 (.d(a), .q(y));\n"
      "endmodule\n";

  struct Case {
    const char* directive;
    ErrorCode code;
  };
  const Case cases[] = {
      {"// gap: domain nosuch a\n", ErrorCode::kUnknownName},
      {"// gap: domain a b@d\n", ErrorCode::kInvalidValue},
      {"// gap: tie a 2\n", ErrorCode::kInvalidValue},
      {"// gap: tie nosuch 0\n", ErrorCode::kUnknownName},
      {"// gap: reset a 7\n", ErrorCode::kInvalidValue},
      {"// gap: hasreset nosuch 1\n", ErrorCode::kUnknownName},
      {"// gap: hasreset r0 2\n", ErrorCode::kInvalidValue},
      // Output ports carry loads, not domains.
      {"// gap: domain y a\n", ErrorCode::kUnknownName},
  };
  for (const Case& c : cases) {
    const auto nl = netlist::read_verilog(good + c.directive, lib);
    ASSERT_FALSE(nl.ok()) << c.directive;
    EXPECT_EQ(nl.status().code(), c.code) << c.directive;
    expect_well_formed_rejection(nl.status(), "verilog");
  }
}

// --- incremental-timer edits: malformed edits reject, never abort ----------

/// Timer rejections are validation verdicts, not parser errors: a real
/// code, the subsystem tag, a message — and never a leaked contract
/// failure or exception. (No source location: edits are constructed in
/// memory, not read from a file.)
void expect_timer_rejection(const Status& s, ErrorCode code) {
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), code) << s.message();
  EXPECT_NE(s.code(), ErrorCode::kContract) << s.message();
  EXPECT_NE(s.code(), ErrorCode::kInternal) << s.message();
  EXPECT_EQ(s.where(), "sta.incremental");
  EXPECT_FALSE(s.message().empty());
}

TEST(FaultInjectionTest, MalformedTimerEditsRejectWithCodesAndExactState) {
  using sta::Edit;
  const CellLibrary lib = library::make_rich_asic_library(tech::asic_025um());
  const auto cla = datapath::make_adder_aig(AdderKind::kCarryLookahead, 8);
  auto nl = synth::map_to_netlist(cla, lib, synth::MapOptions{}, "cla8");
  pipeline::PipelineOptions popt;
  popt.stages = 2;
  nl = pipeline::pipeline_insert(nl, popt).nl;

  sta::IncrementalTimer timer(nl, sta::StaOptions{}, 2);
  const sta::TimingResult baseline = timer.timing();
  const std::string netlist_before = netlist::to_verilog(nl);

  const auto n_inst = static_cast<std::uint32_t>(nl.num_instances());
  const auto n_nets = static_cast<std::uint32_t>(nl.num_nets());

  // A combinational instance with inputs, for the structural mutants.
  InstanceId comb;
  for (InstanceId id : nl.all_instances())
    if (!nl.is_sequential(id) && !nl.instance(id).inputs.empty()) {
      comb = id;
      break;
    }
  ASSERT_TRUE(comb.valid());
  // A library cell with a different function than comb's, for the
  // function-changing swap.
  CellId other_func;
  for (std::uint32_t i = 0; i < lib.size(); ++i) {
    const CellId c{i};
    if (lib.cell(c).func != nl.cell_of(comb).func) {
      other_func = c;
      break;
    }
  }
  ASSERT_TRUE(other_func.valid());

  // Unknown instances: the invalid sentinel and one past the end.
  expect_timer_rejection(timer.apply(Edit::set_drive(InstanceId{}, 4.0)),
                         ErrorCode::kUnknownName);
  expect_timer_rejection(
      timer.apply(Edit::replace_cell(InstanceId{n_inst}, CellId{0})),
      ErrorCode::kUnknownName);
  expect_timer_rejection(timer.apply(Edit::rewire(InstanceId{n_inst + 7}, 0,
                                                  NetId{0})),
                         ErrorCode::kUnknownName);

  // Unknown cells: bad id, and a name the library has never heard of.
  expect_timer_rejection(
      timer.apply(Edit::replace_cell(comb, CellId{})),
      ErrorCode::kUnknownName);
  expect_timer_rejection(
      timer.apply(Edit::replace_cell(
          comb, CellId{static_cast<std::uint32_t>(lib.size())})),
      ErrorCode::kUnknownName);
  expect_timer_rejection(
      timer.apply(Edit::replace_cell_named(comb, "warp_core_9000")),
      ErrorCode::kUnknownName);

  // Semantic violations: function-changing swap, unphysical drives,
  // out-of-range pins, and a clock spec outside its domain.
  expect_timer_rejection(timer.apply(Edit::replace_cell(comb, other_func)),
                         ErrorCode::kInvalidValue);
  expect_timer_rejection(timer.apply(Edit::set_drive(comb, -1.0)),
                         ErrorCode::kInvalidValue);
  expect_timer_rejection(
      timer.apply(Edit::set_drive(comb, std::numeric_limits<double>::infinity())),
      ErrorCode::kInvalidValue);
  expect_timer_rejection(
      timer.apply(Edit::set_drive(comb,
                                  std::numeric_limits<double>::quiet_NaN())),
      ErrorCode::kInvalidValue);
  expect_timer_rejection(timer.apply(Edit::rewire(comb, -1, NetId{0})),
                         ErrorCode::kInvalidValue);
  expect_timer_rejection(
      timer.apply(Edit::rewire(
          comb, static_cast<int>(nl.instance(comb).inputs.size()), NetId{0})),
      ErrorCode::kInvalidValue);
  sta::ClockSpec bad_clock;
  bad_clock.skew_fraction = 1.5;
  expect_timer_rejection(timer.apply(Edit::set_clock(bad_clock)),
                         ErrorCode::kInvalidValue);
  bad_clock.skew_fraction = std::numeric_limits<double>::quiet_NaN();
  expect_timer_rejection(timer.apply(Edit::set_clock(bad_clock)),
                         ErrorCode::kInvalidValue);

  // Unknown net, then a rewire that would close a combinational loop
  // (an input fed by the instance's own output).
  expect_timer_rejection(timer.apply(Edit::rewire(comb, 0, NetId{n_nets})),
                         ErrorCode::kUnknownName);
  expect_timer_rejection(
      timer.apply(Edit::rewire(comb, 0, nl.instance(comb).output)),
      ErrorCode::kStructural);

  // apply_undoable must reject identically, returning no inverse.
  const auto undoable = timer.apply_undoable(Edit::set_drive(comb, -3.0));
  ASSERT_FALSE(undoable.ok());
  expect_timer_rejection(undoable.status(), ErrorCode::kInvalidValue);

  // After every mutant: nothing pending, netlist byte-identical, timing
  // byte-identical — rejection left no trace.
  EXPECT_EQ(timer.pending_dirty(), 0u);
  EXPECT_EQ(netlist::to_verilog(nl), netlist_before);
  const sta::TimingResult after = timer.timing();
  EXPECT_EQ(std::memcmp(&after.min_period_tau, &baseline.min_period_tau,
                        sizeof(double)),
            0);
  EXPECT_EQ(after.critical_path, baseline.critical_path);
}

TEST(FaultInjectionTest, RandomGarbageEditsNeverAbortTheTimer) {
  using sta::Edit;
  const CellLibrary lib = library::make_rich_asic_library(tech::asic_025um());
  const auto rip = datapath::make_adder_aig(AdderKind::kRipple, 8);
  auto nl = synth::map_to_netlist(rip, lib, synth::MapOptions{}, "add8");
  sta::IncrementalTimer timer(nl, sta::StaOptions{}, 1);
  (void)timer.timing();

  int rejected = 0;
  for (int i = 0; i < 300; ++i) {
    Rng rng = Rng::stream(0xFA017'5Au, static_cast<std::uint64_t>(i));
    // Raw ids drawn from twice the valid range, drives/skews from well
    // outside their domains: roughly half of everything is garbage.
    const InstanceId inst{
        static_cast<std::uint32_t>(rng.uniform_index(2 * nl.num_instances()))};
    Edit e;
    switch (rng.uniform_index(4)) {
      case 0:
        e = Edit::replace_cell(
            inst,
            CellId{static_cast<std::uint32_t>(rng.uniform_index(2 * lib.size()))});
        break;
      case 1:
        e = Edit::set_drive(inst, rng.uniform(-8.0, 8.0));
        break;
      case 2:
        e = Edit::rewire(
            inst, static_cast<int>(rng.uniform_index(6)) - 1,
            NetId{static_cast<std::uint32_t>(rng.uniform_index(2 * nl.num_nets()))});
        break;
      default: {
        sta::ClockSpec ck;
        ck.skew_fraction = rng.uniform(-0.5, 1.5);
        e = Edit::set_clock(ck);
        break;
      }
    }
    SCOPED_TRACE("garbage edit #" + std::to_string(i));
    const Status s = timer.apply(e);
    if (!s.ok()) {
      ++rejected;
      EXPECT_EQ(s.where(), "sta.incremental");
      EXPECT_NE(s.code(), ErrorCode::kContract) << s.message();
      EXPECT_NE(s.code(), ErrorCode::kInternal) << s.message();
    }
  }
  EXPECT_GT(rejected, 100);
  // The survivors were legal edits; the timer still answers, and still
  // byte-identically to a from-scratch recompute.
  const sta::TimingResult inc = timer.timing();
  const sta::TimingResult full = sta::analyze(nl, timer.options());
  EXPECT_EQ(std::memcmp(&inc.min_period_tau, &full.min_period_tau,
                        sizeof(double)),
            0);
  EXPECT_EQ(inc.critical_path, full.critical_path);
}

// --- argv mutants: every CLI entry point -----------------------------------

using Argv = std::vector<std::string>;

/// One deterministic mutant of a well-formed command line: truncated, a
/// value dropped, `--flag=` left empty, a value replaced by a malformed,
/// out-of-range or non-finite number, or an unknown token inserted.
Argv mutate_argv(Argv argv, Rng& rng) {
  static const char* const kNumbers[] = {
      " 4", "4 ", "0x10", "-3", "+4", "4.5", "99999999999999999999",
      "1e999", "nan", "inf", "-inf", "", "1e3"};
  static const char* const kUnknown[] = {"-x", "--x", "--x=1", "--", "-"};
  std::vector<std::size_t> valued;  // flags followed by their value
  for (std::size_t i = 0; i + 1 < argv.size(); ++i)
    if (argv[i].rfind("--", 0) == 0 && argv[i + 1].rfind('-', 0) != 0)
      valued.push_back(i);
  const auto pick = [&] { return valued[rng.uniform_index(valued.size())]; };
  const std::size_t op = rng.uniform_index(5);
  if (op == 0 || (op < 4 && valued.empty())) {
    argv.resize(rng.uniform_index(argv.size() + 1));
  } else if (op == 1) {
    argv.erase(argv.begin() + static_cast<std::ptrdiff_t>(pick() + 1));
  } else if (op == 2) {
    const std::size_t i = pick();
    argv[i] += '=';
    argv.erase(argv.begin() + static_cast<std::ptrdiff_t>(i + 1));
  } else if (op == 3) {
    argv[pick() + 1] = kNumbers[rng.uniform_index(std::size(kNumbers))];
  } else {
    const std::size_t at = rng.uniform_index(argv.size() + 1);
    argv.insert(argv.begin() + static_cast<std::ptrdiff_t>(at),
                kUnknown[rng.uniform_index(std::size(kUnknown))]);
  }
  return argv;
}

/// Run a `run_<tool>(argc, argv, out, err)` entry point on `args`.
int run_c_argv(int (*entry)(int, const char* const*, std::ostream&,
                            std::ostream&),
               const Argv& args) {
  std::vector<const char*> argv;
  for (const std::string& a : args) argv.push_back(a.c_str());
  std::ostringstream out, err;
  return entry(static_cast<int>(argv.size()), argv.data(), out, err);
}

struct CliTool {
  std::string name;
  std::vector<Argv> lines;  ///< well-formed command lines to mutate
  std::set<int> exits;      ///< every exit code the tool documents
  std::function<int(const Argv&)> run;
};

std::vector<CliTool> cli_tools(const std::string& dir) {
  const auto write = [&](const std::string& name, const std::string& text) {
    std::ofstream(dir + "/" + name) << text;
    return dir + "/" + name;
  };
  const std::string v = write(
      "clean.v",
      "module clean_core (d_in, q_out);\n  input d_in;\n  output q_out;\n"
      "  wire q0;\n  wire n1;\n  dff_x2 r0 (.d(d_in), .q(q0));\n"
      "  inv_x2 u0 (.a(q0), .y(n1));\n  dff_x2 r1 (.d(n1), .q(q_out));\n"
      "endmodule\n");
  const std::string m = write(
      "m.json", "{\"counters\":{\"a\":1},\"gauges\":{\"g\":2},"
                "\"histograms\":{}}");
  const std::string q = write(
      "q.json", "{\"tool\":\"gapflow\",\"schema_version\":" +
                    std::to_string(qor::kManifestSchemaVersion) + "}");
  const std::string missing_lib = dir + "/missing.lib";
  return {
      // --check-liberty on a missing file ends every line that parses
      // right after name resolution, instead of running a whole flow.
      {"gapflow",
       {{"--design", "alu16", "--methodology", "typical", "--tech",
         "asic025", "--corner", "worst", "--stages", "4", "--mc", "8",
         "--threads", "2", "--report", "timing", "--macro", "--scan"}},
       {0, 2, 3, 4, 5, 6},
       [missing_lib](const Argv& args) {
         Argv argv{"gapflow", "--check-liberty", missing_lib};
         argv.insert(argv.end(), args.begin(), args.end());
         std::ostringstream out, err;
         return core::cli::run(argv, out, err);
       }},
      {"gaplint",
       {{v, "--format", "json", "--threads", "2", "--period-tau", "40",
         "--skew-fraction", "0.1"},
        {"--list-rules", "--format", "text"}},
       {0, 1, 2, 3, 5},
       [](const Argv& args) { return run_c_argv(lint::run_gaplint, args); }},
      {"gapd",
       {{"--threads", "2", "--max-sessions", "4", "--max-frame-bytes", "4096",
         "--max-journal-edits", "100", "--deadline-us", "1000",
         "--expose-interval", "10", "--flight-capacity", "64",
         "--no-recover"}},
       {0, 2, 5},
       [](const Argv& args) {
         std::vector<const char*> argv;
         for (const std::string& a : args) argv.push_back(a.c_str());
         std::istringstream in;
         std::ostringstream out, err;
         return serve::run_gapd(static_cast<int>(argv.size()), argv.data(),
                                in, out, err);
       }},
      {"gapstat",
       {{"diff", m, m, "--format", "csv", "--strict"},
        {"agg", m, m, "--format=json"},
        {"show", m, "--format", "text"}},
       {0, 1, 2, 4, 5},
       [](const Argv& args) { return run_c_argv(obs::run_gapstat, args); }},
      {"gapreport",
       {{"diff", q, q, "--threshold", "0.1", "--strict"},
        {"show", q, "--csv"}},
       {0, 1, 2, 3, 5},
       [](const Argv& args) {
         return run_c_argv(qor::run_gapreport, args);
       }},
  };
}

TEST(FaultInjectionTest, ArgvMutantsExitWithDocumentedCodes) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "gap_argv").string();
  std::filesystem::create_directories(dir);
  for (const CliTool& tool : cli_tools(dir)) {
    int rejected = 0;
    int runs = 0;
    for (std::size_t l = 0; l < tool.lines.size(); ++l) {
      const int clean = tool.run(tool.lines[l]);
      EXPECT_EQ(clean, tool.name == "gapflow" ? 5 : 0) << tool.name;
      for (int i = 0; i < 60; ++i, ++runs) {
        Rng rng = Rng::stream(0xA26'0000u + l, static_cast<std::uint64_t>(i));
        const Argv argv = mutate_argv(tool.lines[l], rng);
        std::string line = tool.name;
        for (const std::string& a : argv) line += " '" + a + "'";
        SCOPED_TRACE(line);
        const int code = tool.run(argv);
        EXPECT_EQ(tool.exits.count(code), 1u) << "undocumented exit " << code;
        if (code != clean) ++rejected;
      }
    }
    // The mutants bite: most of them are refused.
    EXPECT_GT(rejected, runs / 2) << tool.name;
  }
}

// --- determinism: same seed, same verdicts ---------------------------------

TEST(FaultInjectionTest, MutationStreamIsDeterministic) {
  const std::string base = liberty_corpus().front();
  for (int i = 0; i < 10; ++i) {
    Rng r1 = Rng::stream(42, static_cast<std::uint64_t>(i));
    Rng r2 = Rng::stream(42, static_cast<std::uint64_t>(i));
    EXPECT_EQ(mutate(base, r1), mutate(base, r2));
  }
}

}  // namespace
}  // namespace gap
