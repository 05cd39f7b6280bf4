#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/flow.hpp"
#include "core/gap.hpp"
#include "designs/registry.hpp"
#include "library/builders.hpp"
#include "library/liberty.hpp"
#include "tech/technology.hpp"
#include "json_lint.hpp"

namespace gap::core::cli {
namespace {

struct RunCapture {
  int code = 0;
  std::string out;
  std::string err;
};

RunCapture invoke(std::vector<std::string> args) {
  args.insert(args.begin(), "gapflow");
  std::ostringstream out;
  std::ostringstream err;
  RunCapture r;
  r.code = run(args, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

int count_lines(const std::string& s) {
  int n = 0;
  for (char c : s)
    if (c == '\n') ++n;
  return n;
}

TEST(DriverArgsTest, UnknownFlagIsUsageError) {
  const auto r = parse_args({"gapflow", "--bogus"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), common::ErrorCode::kUsage);
  EXPECT_NE(r.status().message().find("--bogus"), std::string::npos);
}

TEST(DriverArgsTest, MissingValueIsReportedPerFlag) {
  for (const char* flag :
       {"--design", "--methodology", "--tech", "--corner", "--stages", "--mc",
        "--report", "--write-verilog", "--check-liberty"}) {
    const auto r = parse_args({"gapflow", flag});
    ASSERT_FALSE(r.ok()) << flag;
    EXPECT_EQ(r.status().code(), common::ErrorCode::kMissingValue) << flag;
    EXPECT_NE(r.status().message().find(flag), std::string::npos);
  }
}

TEST(DriverArgsTest, NonNumericValueIsInvalidNotAbort) {
  // The legacy driver std::stoi'd these and died on an uncaught exception.
  for (const char* bad : {"abc", "", "12x", "1e9", "99999999999999"}) {
    const auto r = parse_args({"gapflow", "--stages", bad});
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), common::ErrorCode::kInvalidValue) << bad;
  }
  const auto neg = parse_args({"gapflow", "--threads", "-2"});
  ASSERT_FALSE(neg.ok());
  EXPECT_EQ(neg.status().code(), common::ErrorCode::kInvalidValue);
}

TEST(DriverRunTest, ThreadsAbove1024ExitThreeNotAbort) {
  // --mc 8 --threads 100000 used to reach std::thread and abort with an
  // uncaught std::system_error (exit 134).
  for (const char* n : {"100000", "1025", "-1"}) {
    const RunCapture r = invoke({"--mc", "8", "--threads", n});
    EXPECT_EQ(r.code, 3) << n;
    EXPECT_NE(r.err.find("error[invalid-value]"), std::string::npos) << r.err;
  }
}

TEST(DriverRunTest, StagesAndMcOutOfRangeExitThree) {
  // --stages 0 used to pass parsing and fail the pipeline stage's
  // contract (exit 6); --mc -5 ran as if it were 0.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--stages", "0"},
        {"--stages", "-3"},
        {"--stages", "1000001"},
        {"--mc", "-5"},
        {"--mc", "1000001"}}) {
    const RunCapture r = invoke(args);
    EXPECT_EQ(r.code, 3) << args[0] << ' ' << args[1];
    EXPECT_NE(r.err.find("error[invalid-value]"), std::string::npos) << r.err;
  }
}

TEST(DriverArgsTest, EqualsFormAndShortHelp) {
  const auto r = parse_args({"gapflow", "--design=mac16", "--stages=4",
                             "--corner=worst", "-h"});
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->design, "mac16");
  EXPECT_EQ(*r->stages, 4);
  EXPECT_EQ(*r->corner, "worst");
  EXPECT_TRUE(r->help);
}

TEST(DriverArgsTest, GoodLineParses) {
  const auto r = parse_args({"gapflow", "--design", "mac16", "--stages", "4",
                             "--corner", "worst", "--diagnostics"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->design, "mac16");
  EXPECT_EQ(*r->stages, 4);
  EXPECT_EQ(*r->corner, "worst");
  EXPECT_TRUE(r->diagnostics);
}

TEST(DriverExitCodeTest, MappingIsDocumentedAndDistinct) {
  using common::ErrorCode;
  EXPECT_EQ(exit_code_for(ErrorCode::kOk), 0);
  EXPECT_EQ(exit_code_for(ErrorCode::kUsage), 2);
  EXPECT_EQ(exit_code_for(ErrorCode::kMissingValue), 3);
  EXPECT_EQ(exit_code_for(ErrorCode::kInvalidValue), 3);
  EXPECT_EQ(exit_code_for(ErrorCode::kUnknownName), 4);
  EXPECT_EQ(exit_code_for(ErrorCode::kParse), 5);
  EXPECT_EQ(exit_code_for(ErrorCode::kIo), 5);
  EXPECT_EQ(exit_code_for(ErrorCode::kStructural), 6);
  EXPECT_EQ(exit_code_for(ErrorCode::kContract), 6);
  // gapd's two service codes join the internal group; no CLI raises them.
  EXPECT_EQ(exit_code_for(ErrorCode::kOverloaded), 6);
  EXPECT_EQ(exit_code_for(ErrorCode::kDeadline), 6);
}

TEST(DriverRunTest, UnknownFlagOneLineDiagnosticExit2) {
  const RunCapture r = invoke({"--frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("error[usage]"), std::string::npos);
  EXPECT_NE(r.err.find("--frobnicate"), std::string::npos);
  EXPECT_EQ(count_lines(r.err), 2);  // diagnostic + --help hint
}

TEST(DriverRunTest, MissingValueExit3) {
  const RunCapture r = invoke({"--design"});
  EXPECT_EQ(r.code, 3);
  EXPECT_NE(r.err.find("missing value"), std::string::npos);
}

TEST(DriverRunTest, UnknownNamesExit4) {
  const RunCapture d = invoke({"--design", "no_such_core"});
  EXPECT_EQ(d.code, 4);
  EXPECT_NE(d.err.find("no_such_core"), std::string::npos);

  const RunCapture t = invoke({"--tech", "asic999"});
  EXPECT_EQ(t.code, 4);
  EXPECT_NE(t.err.find("asic999"), std::string::npos);

  const RunCapture c = invoke({"--corner", "bestest"});
  EXPECT_EQ(c.code, 4);
  EXPECT_NE(c.err.find("bestest"), std::string::npos);

  const RunCapture m = invoke({"--methodology", "heroic"});
  EXPECT_EQ(m.code, 4);
  EXPECT_NE(m.err.find("heroic"), std::string::npos);
}

TEST(DriverRunTest, ArgumentErrorCodesAreNonZeroAndDistinct) {
  const int unknown_flag = invoke({"--frobnicate"}).code;
  const int missing_value = invoke({"--tech"}).code;
  const int unknown_name = invoke({"--tech", "asic999"}).code;
  EXPECT_NE(unknown_flag, 0);
  EXPECT_NE(missing_value, 0);
  EXPECT_NE(unknown_name, 0);
  EXPECT_NE(unknown_flag, missing_value);
  EXPECT_NE(missing_value, unknown_name);
  EXPECT_NE(unknown_flag, unknown_name);
}

TEST(DriverRunTest, HelpAndListDesignsExitZero) {
  const RunCapture h = invoke({"--help"});
  EXPECT_EQ(h.code, 0);
  EXPECT_NE(h.out.find("exit codes"), std::string::npos);

  const RunCapture l = invoke({"--list-designs"});
  EXPECT_EQ(l.code, 0);
  EXPECT_NE(l.out.find("alu32"), std::string::npos);
}

TEST(DriverRunTest, CheckLibertyMissingFileExit5) {
  const RunCapture r = invoke({"--check-liberty", "/no/such/file.lib"});
  EXPECT_EQ(r.code, 5);
  EXPECT_NE(r.err.find("error[io]"), std::string::npos);
}

TEST(DriverRunTest, CheckLibertyLintsGoodAndBadFiles) {
  const std::string good_path = "driver_test_good.lib";
  {
    std::ofstream os(good_path);
    library::write_liberty(
        library::make_rich_asic_library(tech::asic_025um()), os);
  }
  const RunCapture good = invoke({"--check-liberty", good_path});
  EXPECT_EQ(good.code, 0);
  EXPECT_NE(good.out.find("ok ("), std::string::npos);

  const std::string bad_path = "driver_test_bad.lib";
  {
    std::ofstream os(bad_path);
    os << "library (broken) { cell (x) { area : -3; } }\n";
  }
  const RunCapture bad = invoke({"--check-liberty", bad_path});
  EXPECT_NE(bad.code, 0);
  EXPECT_NE(bad.err.find(bad_path), std::string::npos);
  EXPECT_NE(bad.err.find(":1:"), std::string::npos);  // carries line info

  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

TEST(DriverRunTest, WrittenFilesCheckCleanAndDataflowStageRuns) {
  // --write-verilog / --write-liberty output reads back through
  // --check-verilog / --check-liberty, and --lint-dataflow adds its
  // stage between size and signoff.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "gap_driver_write_check";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string verilog = (dir / "alu16.v").string();
  const std::string liberty = (dir / "alu16.lib").string();
  const RunCapture wrote = invoke({"--design", "alu16", "--write-verilog",
                                   verilog, "--write-liberty", liberty});
  ASSERT_EQ(wrote.code, 0) << wrote.err;
  EXPECT_NE(wrote.out.find("wrote " + verilog + "\n"), std::string::npos);
  EXPECT_NE(wrote.out.find("wrote " + liberty + "\n"), std::string::npos);

  // The summary line "area : ... um^2 (N instances, ..." names the count
  // the Verilog must read back with.
  const std::size_t open = wrote.out.find("um^2 (");
  ASSERT_NE(open, std::string::npos) << wrote.out;
  const std::string instances =
      wrote.out.substr(open + 6, wrote.out.find(' ', open + 6) - open - 6);
  const RunCapture v = invoke({"--check-verilog", verilog});
  EXPECT_EQ(v.code, 0) << v.err;
  EXPECT_EQ(v.out, verilog + ": ok (" + instances + " instances)\n");

  std::ifstream lib_in(liberty);
  const std::string lib_text((std::istreambuf_iterator<char>(lib_in)),
                             std::istreambuf_iterator<char>());
  std::size_t cells = 0;
  for (std::size_t at = lib_text.find("cell ("); at != std::string::npos;
       at = lib_text.find("cell (", at + 1))
    ++cells;
  ASSERT_GT(cells, 0u);
  const RunCapture l = invoke({"--check-liberty", liberty});
  EXPECT_EQ(l.code, 0) << l.err;
  EXPECT_EQ(l.out, liberty + ": ok (" + std::to_string(cells) + " cells)\n");

  const RunCapture df =
      invoke({"--design", "alu16", "--lint-dataflow", "--diagnostics"});
  EXPECT_EQ(df.code, 0) << df.err;
  const std::size_t size = df.out.find("\n  size ");
  const std::size_t lint = df.out.find("\n  lint-dataflow ");
  const std::size_t signoff = df.out.find("\n  signoff ");
  ASSERT_NE(lint, std::string::npos) << df.out;
  EXPECT_LT(size, lint) << df.out;
  EXPECT_LT(lint, signoff) << df.out;
  EXPECT_NE(signoff, std::string::npos) << df.out;
  fs::remove_all(dir);
}

TEST(DriverRunTest, SuccessPathPrintsSummaryAndFlowReport) {
  const RunCapture r =
      invoke({"--design", "alu16", "--methodology", "typical",
              "--diagnostics"});
  EXPECT_EQ(r.code, 0);
  EXPECT_TRUE(r.err.empty()) << r.err;
  EXPECT_NE(r.out.find("frequency"), std::string::npos);
  EXPECT_NE(r.out.find("flow report:"), std::string::npos);
  for (const char* stage : {"map", "pipeline", "place", "route", "signoff"})
    EXPECT_NE(r.out.find(stage), std::string::npos) << stage;
}

TEST(DriverRunTest, LintGateRunsOnlyWhenRequested) {
  const RunCapture with =
      invoke({"--design", "alu16", "--lint", "--diagnostics"});
  EXPECT_EQ(with.code, 0) << with.err;
  EXPECT_NE(with.out.find("lint"), std::string::npos);

  const RunCapture without = invoke({"--design", "alu16", "--diagnostics"});
  EXPECT_EQ(without.code, 0);
  // No lint stage in the flow report unless --lint was given.
  EXPECT_EQ(without.out.find("lint"), std::string::npos);
}

TEST(DriverRunTest, TraceAndMetricsOutProduceValidJson) {
  const std::string trace_path = "driver_test_trace.json";
  const std::string metrics_path = "driver_test_metrics.json";
  const RunCapture r = invoke({"--design", "alu16", "--trace-out", trace_path,
                               "--metrics-out", metrics_path});
  EXPECT_EQ(r.code, 0);
  EXPECT_TRUE(r.err.empty()) << r.err;
  EXPECT_NE(r.out.find("wrote " + trace_path), std::string::npos);
  EXPECT_NE(r.out.find("wrote " + metrics_path), std::string::npos);

  const auto slurp = [](const std::string& path) {
    std::ifstream is(path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
  };

  const std::string trace = slurp(trace_path);
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(gap::testing::JsonLint::valid(trace));
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  // Per-stage flow spans must be present (Perfetto top-level rows).
  for (const char* span : {"flow::run", "flow::map", "flow::place",
                           "flow::route", "flow::signoff"})
    EXPECT_NE(trace.find(span), std::string::npos) << span;

  const std::string metrics = slurp(metrics_path);
  ASSERT_FALSE(metrics.empty());
  EXPECT_TRUE(gap::testing::JsonLint::valid(metrics));
  // Live counters from at least the five instrumented engines.
  for (const char* counter :
       {"\"mapper.gates_mapped\"", "\"sta.arrival_passes\"",
        "\"place.instances_placed\"", "\"route.nets_routed\"",
        "\"tilos.iterations\""})
    EXPECT_NE(metrics.find(counter), std::string::npos) << counter;

  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(DriverRunTest, ObservabilityFlagsDoNotChangeFlowOutput) {
  const std::string trace_path = "driver_test_trace2.json";
  const std::string metrics_path = "driver_test_metrics2.json";
  const RunCapture plain = invoke({"--design", "alu16"});
  const RunCapture observed =
      invoke({"--design", "alu16", "--trace-out", trace_path, "--metrics-out",
              metrics_path});
  ASSERT_EQ(plain.code, 0);
  ASSERT_EQ(observed.code, 0);
  // The observed run prints the plain report plus exactly two "wrote"
  // lines — everything before them is byte-identical.
  EXPECT_EQ(observed.out.substr(0, plain.out.size()), plain.out);
  const std::string tail = observed.out.substr(plain.out.size());
  EXPECT_NE(tail.find("wrote " + trace_path), std::string::npos);
  EXPECT_NE(tail.find("wrote " + metrics_path), std::string::npos);
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(DriverRunTest, MetricsDeterministicAcrossThreadCounts) {
  const std::string m1 = "driver_test_metrics_t1.json";
  const std::string mN = "driver_test_metrics_tN.json";
  const RunCapture r1 = invoke({"--design", "alu16", "--mc", "16", "--threads",
                                "1", "--metrics-out", m1});
  const RunCapture rN = invoke({"--design", "alu16", "--mc", "16", "--threads",
                                "4", "--metrics-out", mN});
  ASSERT_EQ(r1.code, 0) << r1.err;
  ASSERT_EQ(rN.code, 0) << rN.err;

  const auto slurp = [](const std::string& path) {
    std::ifstream is(path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
  };
  const std::string a = slurp(m1);
  const std::string b = slurp(mN);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // byte-identical metric files at any thread count
  std::remove(m1.c_str());
  std::remove(mN.c_str());
}

TEST(DriverRunTest, TraceOutUnwritablePathIsIoError) {
  const RunCapture r = invoke({"--design", "alu16", "--trace-out",
                               "/no/such/dir/trace.json"});
  EXPECT_EQ(r.code, 5);
  EXPECT_NE(r.err.find("error[io]"), std::string::npos);
}

TEST(DriverRunTest, QorOutWritesValidManifest) {
  const std::string path = "driver_test_qor.json";
  const RunCapture r = invoke({"--design", "alu16", "--qor-out", path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("wrote " + path), std::string::npos);

  std::ifstream is(path);
  std::ostringstream ss;
  ss << is.rdbuf();
  const std::string manifest = ss.str();
  ASSERT_FALSE(manifest.empty());
  EXPECT_TRUE(gap::testing::JsonLint::valid(manifest));
  for (const char* key :
       {"\"schema_version\"", "\"stages\"", "\"qor\"", "\"min_period_tau\"",
        "\"attribution\"", "\"gap_score\"", "\"slack_histogram\"",
        "\"result\""})
    EXPECT_NE(manifest.find(key), std::string::npos) << key;
  // Execution details must not leak into a diffable document: wall
  // times, thread counts, and (without --metrics-out) engine counter
  // deltas, which describe which timing engine ran rather than QoR.
  EXPECT_EQ(manifest.find("wall_ms"), std::string::npos);
  EXPECT_EQ(manifest.find("threads"), std::string::npos);
  EXPECT_EQ(manifest.find("metric_deltas"), std::string::npos);
  std::remove(path.c_str());
}

TEST(DriverRunTest, QorOutWithMetricsOutCarriesMetricDeltas) {
  const std::string qpath = "driver_test_qor_metrics.json";
  const std::string mpath = "driver_test_qor_metrics_m.json";
  const RunCapture r = invoke({"--design", "alu16", "--qor-out", qpath,
                               "--metrics-out", mpath});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream is(qpath);
  std::ostringstream ss;
  ss << is.rdbuf();
  const std::string manifest = ss.str();
  ASSERT_FALSE(manifest.empty());
  EXPECT_TRUE(gap::testing::JsonLint::valid(manifest));
  // An observability run records the per-stage engine counters.
  EXPECT_NE(manifest.find("\"metric_deltas\""), std::string::npos);
  EXPECT_NE(manifest.find("mapper.gates_mapped"), std::string::npos);
  std::remove(qpath.c_str());
  std::remove(mpath.c_str());
}

TEST(DriverRunTest, MetricDeltasCarryNoWallMetrics) {
  // Wall metrics depend on the lane count, so no stage's metric_deltas
  // may carry one, at any --threads setting.
  const std::string qpath = "driver_test_qor_wall.json";
  const std::string mpath = "driver_test_qor_wall_m.json";
  for (const char* threads : {"1", "4"}) {
    const RunCapture r =
        invoke({"--design", "mac16", "--mc", "8", "--threads", threads,
                "--qor-out", qpath, "--metrics-out", mpath});
    ASSERT_EQ(r.code, 0) << r.err;
    std::ifstream is(qpath);
    std::ostringstream ss;
    ss << is.rdbuf();
    const std::string manifest = ss.str();
    EXPECT_NE(manifest.find("\"sta.arrival_passes\""), std::string::npos);
    EXPECT_EQ(manifest.find("\"wall."), std::string::npos)
        << "threads=" << threads;
  }
  std::remove(qpath.c_str());
  std::remove(mpath.c_str());
}

TEST(DriverArgsTest, StaFlagIsUnknown) {
  // Sizing and sign-off have one timing engine, so there is no engine
  // switch to set.
  const RunCapture r = invoke({"--design", "alu16", "--sta", "full"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("error[usage]"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("--sta"), std::string::npos) << r.err;
}

TEST(DriverRunTest, QorOutDeterministicAcrossThreadCounts) {
  const std::string q1 = "driver_test_qor_t1.json";
  const std::string qN = "driver_test_qor_tN.json";
  const RunCapture r1 = invoke({"--design", "alu16", "--mc", "16", "--threads",
                                "1", "--qor-out", q1});
  const RunCapture rN = invoke({"--design", "alu16", "--mc", "16", "--threads",
                                "4", "--qor-out", qN});
  ASSERT_EQ(r1.code, 0) << r1.err;
  ASSERT_EQ(rN.code, 0) << rN.err;

  const auto slurp = [](const std::string& path) {
    std::ifstream is(path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
  };
  const std::string a = slurp(q1);
  const std::string b = slurp(qN);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // byte-identical manifests at any thread count
  // The MC variation section must be present (signoff snapshot).
  EXPECT_NE(a.find("\"variation\""), std::string::npos);
  std::remove(q1.c_str());
  std::remove(qN.c_str());
}

TEST(DriverRunTest, QorOutDoesNotChangeFlowOutput) {
  const std::string path = "driver_test_qor3.json";
  const RunCapture plain = invoke({"--design", "alu16"});
  const RunCapture with_qor = invoke({"--design", "alu16", "--qor-out", path});
  ASSERT_EQ(plain.code, 0);
  ASSERT_EQ(with_qor.code, 0);
  // Same report, plus exactly the "wrote" line at the end.
  EXPECT_EQ(with_qor.out.substr(0, plain.out.size()), plain.out);
  EXPECT_EQ(with_qor.out.substr(plain.out.size()), "wrote " + path + "\n");
  std::remove(path.c_str());
}

TEST(DriverRunTest, QorOutUnwritablePathIsIoError) {
  const RunCapture r = invoke({"--design", "alu16", "--qor-out",
                               "/no/such/dir/qor.json"});
  EXPECT_EQ(r.code, 5);
  EXPECT_NE(r.err.find("error[io]"), std::string::npos);
}

TEST(FlowReportTest, StageReportsCarryMetricDeltas) {
  Flow flow(tech::asic_025um());
  const auto aig =
      designs::make_design("alu16", designs::DatapathStyle::kSynthesized);
  const FlowResult r = flow.run(aig, typical_asic());
  ASSERT_TRUE(r.ok());
  bool map_counted = false;
  for (const StageReport& s : r.report.stages) {
    if (s.name != "map") continue;
    for (const auto& [name, delta] : s.metric_deltas)
      if (name == "mapper.gates_mapped" && delta > 0) map_counted = true;
  }
  EXPECT_TRUE(map_counted);
  EXPECT_FALSE(r.report.format_with_metrics().empty());
}

TEST(FlowReportTest, CustomSizingAndSignoffTakeOneArrivalPass) {
  // TILOS re-times every move through the resident timer, so the custom
  // size stage pays one full arrival pass (the timer's build) and
  // sign-off reads the timer without another.
  Flow flow(tech::asic_025um());
  const Methodology m = full_custom();
  for (const std::string& name : designs::design_names()) {
    SCOPED_TRACE(name);
    const FlowResult r = flow.run(designs::make_design(name, m.datapath), m);
    ASSERT_TRUE(r.ok());
    std::map<std::string, std::map<std::string, std::uint64_t>> deltas;
    for (const StageReport& s : r.report.stages)
      deltas[s.name].insert(s.metric_deltas.begin(), s.metric_deltas.end());
    EXPECT_EQ(deltas["size"]["sta.arrival_passes"], 1u);
    EXPECT_EQ(deltas["size"]["sta.incremental.full_rebuilds"], 1u);
    EXPECT_EQ(deltas["signoff"].count("sta.arrival_passes"), 0u);
    EXPECT_EQ(deltas["signoff"].count("sta.incremental.full_rebuilds"), 0u);
  }
}

TEST(FlowReportTest, EveryStageTimedAndOk) {
  Flow flow(tech::asic_025um());
  const auto aig =
      designs::make_design("alu16", designs::DatapathStyle::kSynthesized);
  const FlowResult r = flow.run(aig, typical_asic());
  ASSERT_NE(r.nl, nullptr);
  EXPECT_TRUE(r.ok());
  ASSERT_EQ(r.report.stages.size(), 6u);
  const char* expected[] = {"map", "pipeline", "place",
                            "route", "size", "signoff"};
  for (std::size_t i = 0; i < 6; ++i) {
    const StageReport& s = r.report.stages[i];
    EXPECT_EQ(s.name, expected[i]);
    EXPECT_NE(s.status, StageStatus::kFailed) << s.name;
    if (s.status == StageStatus::kOk) EXPECT_GE(s.wall_ms, 0.0) << s.name;
    EXPECT_TRUE(s.diagnostics.empty()) << s.name;
  }
  EXPECT_EQ(r.report.failed_stage(), nullptr);
  EXPECT_FALSE(r.report.format().empty());
}

}  // namespace
}  // namespace gap::core::cli
