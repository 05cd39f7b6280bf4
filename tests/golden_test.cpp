// Golden artifacts: the QoR manifests, metrics JSON, gapflow's text
// timing report, gaplint reports, gapd replies and every tool's --help
// text, regenerated through
// the in-process CLI entry points and compared byte for byte with the
// files under tests/golden/ (tests/golden/README.md lists the command
// behind each file).
//
// Every test changes into the source root first, so relative paths
// (which gaplint echoes into its reports as the artifact name) match
// the commands in the README.
//
// The metrics JSON lists every metric name registered in the process, so
// the gapflow --metrics-out case is declared first: a whole-binary run
// (e.g. under tools/check.sh asan) then sees it in a fresh registry, the
// same state the gapflow binary starts from. ctest runs each test in its
// own process anyway.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/driver.hpp"
#include "lint/lint_cli.hpp"
#include "obs/stat_cli.hpp"
#include "qor/report_cli.hpp"
#include "serve/serve_cli.hpp"

namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string golden(const std::string& rel) {
  return slurp(fs::path(GAP_SOURCE_DIR) / "tests" / "golden" / rel);
}

/// Byte-equality with a readable failure: the first differing offset and
/// a window of context from both sides.
void expect_bytes(const std::string& want, const std::string& got,
                  const std::string& what) {
  if (want == got) return;
  std::size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  const std::size_t from = i < 40 ? 0 : i - 40;
  ADD_FAILURE() << what << " differs from its golden file at byte " << i
                << " (golden " << want.size() << " bytes, got " << got.size()
                << ")\n  golden: ..." << want.substr(from, 120)
                << "\n  got:    ..." << got.substr(from, 120);
}

class Golden : public ::testing::Test {
 protected:
  void SetUp() override { fs::current_path(GAP_SOURCE_DIR); }

  /// A path under the gtest temp directory for a file a CLI writes.
  static std::string scratch(const std::string& name) {
    const fs::path dir = fs::path(::testing::TempDir()) / "gap_golden";
    fs::create_directories(dir);
    return (dir / name).string();
  }

  /// Run gapflow in-process; its stdout goes to `stdout_text` if given.
  static int gapflow(const std::vector<std::string>& args,
                     std::string* stdout_text = nullptr) {
    std::vector<std::string> argv{"gapflow"};
    argv.insert(argv.end(), args.begin(), args.end());
    std::ostringstream out;
    std::ostringstream err;
    const int code = gap::core::cli::run(argv, out, err);
    if (stdout_text != nullptr) *stdout_text = out.str();
    return code;
  }
};

/// Thread counts every thread-invariant golden is regenerated at: each
/// run must match the one committed file.
const char* const kThreadCounts[] = {"1", "8"};

TEST_F(Golden, GapflowMac16MonteCarloManifestAndMetrics) {
  const std::string qor = scratch("mac16_mc8.qor.json");
  const std::string metrics = scratch("mac16_mc8.metrics.json");
  for (const char* threads : kThreadCounts) {
    const std::string what = std::string("mac16 --mc 8 --threads ") + threads;
    ASSERT_EQ(gapflow({"--design", "mac16", "--mc", "8", "--threads", threads,
                       "--qor-out", qor, "--metrics-out", metrics}),
              0)
        << what;
    expect_bytes(golden("gapflow/mac16_mc8.qor.json"), slurp(qor),
                 what + " manifest");
    expect_bytes(golden("gapflow/mac16_mc8.metrics.json"), slurp(metrics),
                 what + " metrics");
  }
}

TEST_F(Golden, GapflowAlu16Manifest) {
  const std::string qor = scratch("alu16.qor.json");
  for (const char* threads : kThreadCounts) {
    const std::string what =
        std::string("alu16 --threads ") + threads + " manifest";
    ASSERT_EQ(gapflow({"--design", "alu16", "--threads", threads,
                       "--qor-out", qor}),
              0)
        << what;
    expect_bytes(golden("gapflow/alu16.qor.json"), slurp(qor), what);
  }
}

TEST_F(Golden, GapflowAlu16TimingReport) {
  std::string report;
  ASSERT_EQ(gapflow({"--design", "alu16", "--report", "timing"}, &report), 0);
  expect_bytes(golden("gapflow/alu16.report_timing.txt"), report,
               "alu16 --report timing");
}

struct LintRun {
  int code = -1;
  std::string out;
};

LintRun gaplint(const std::vector<std::string>& args) {
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const std::string& a : args) argv.push_back(a.c_str());
  std::ostringstream out;
  std::ostringstream err;
  LintRun r;
  r.code = gap::lint::run_gaplint(static_cast<int>(argv.size()), argv.data(),
                                  out, err);
  r.out = out.str();
  return r;
}

class GaplintGolden : public Golden,
                      public ::testing::WithParamInterface<std::string> {};

TEST_P(GaplintGolden, TextJsonAndSarifReports) {
  const std::string fixture = GetParam();
  const std::string base = "examples/lint/" + fixture;
  std::vector<std::string> args{base + ".v"};
  if (fs::exists(base + ".lib")) {
    args.emplace_back("--lib");
    args.push_back(base + ".lib");
  }
  args.emplace_back("--config");
  args.push_back(base + ".toml");
  // Unwaived error findings exit 1 (docs/static-analysis.md).
  const int want_code = fixture == "cdc" || fixture == "broken" ? 1 : 0;
  const std::pair<const char*, const char*> formats[] = {
      {"text", "txt"}, {"json", "json"}, {"sarif", "sarif"}};
  for (const auto& [format, ext] : formats) {
    for (const char* threads : kThreadCounts) {
      std::vector<std::string> run_args = args;
      run_args.insert(run_args.end(),
                      {"--format", format, "--threads", threads});
      const std::string what = fixture + " " + format + " --threads " + threads;
      const LintRun r = gaplint(run_args);
      EXPECT_EQ(r.code, want_code) << what;
      expect_bytes(golden("gaplint/" + fixture + "." + ext), r.out,
                   what + " report");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fixtures, GaplintGolden,
                         ::testing::Values(std::string("clean"), "cdc", "const",
                                           "broken"),
                         [](const auto& info) { return info.param; });

TEST_F(Golden, GaplintRuleCatalogJson) {
  const LintRun r = gaplint({"--list-rules", "--format", "json"});
  ASSERT_EQ(r.code, 0);
  expect_bytes(golden("gaplint/rules.json"), r.out, "rule catalog");
}

/// gapd replies are thread-invariant, so both thread counts must match
/// the one golden transcript.
class GapdGolden
    : public Golden,
      public ::testing::WithParamInterface<std::tuple<std::string, int>> {};

TEST_P(GapdGolden, RepliesMatchTranscript) {
  const auto [script, threads] = GetParam();
  std::istringstream in(slurp("examples/serve/" + script + ".jsonl"));
  std::ostringstream out;
  std::ostringstream err;
  const std::string threads_arg = std::to_string(threads);
  const char* argv[] = {"--threads", threads_arg.c_str()};
  ASSERT_EQ(gap::serve::run_gapd(2, argv, in, out, err), 0) << err.str();
  expect_bytes(golden("gapd/" + script + ".out"), out.str(),
               script + " replies at --threads " + threads_arg);
}

INSTANTIATE_TEST_SUITE_P(
    Scripts, GapdGolden,
    ::testing::Combine(::testing::Values(std::string("session"),
                                         std::string("malformed")),
                       ::testing::Values(1, 8)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

/// Each tool's --help text, rendered through its in-process entry point.
class HelpGolden : public Golden,
                   public ::testing::WithParamInterface<std::string> {};

TEST_P(HelpGolden, HelpTextMatches) {
  const std::string tool = GetParam();
  const char* argv[] = {"--help"};
  std::ostringstream out;
  std::ostringstream err;
  int code = -1;
  if (tool == "gapflow") {
    code = gap::core::cli::run({"gapflow", "--help"}, out, err);
  } else if (tool == "gaplint") {
    code = gap::lint::run_gaplint(1, argv, out, err);
  } else if (tool == "gapd") {
    std::istringstream in;
    code = gap::serve::run_gapd(1, argv, in, out, err);
  } else if (tool == "gapstat") {
    code = gap::obs::run_gapstat(1, argv, out, err);
  } else if (tool == "gapreport") {
    code = gap::qor::run_gapreport(1, argv, out, err);
  }
  ASSERT_EQ(code, 0) << err.str();
  EXPECT_TRUE(err.str().empty()) << err.str();
  expect_bytes(golden(tool + "/help.txt"), out.str(), tool + " --help");
}

INSTANTIATE_TEST_SUITE_P(Tools, HelpGolden,
                         ::testing::Values(std::string("gapflow"), "gaplint",
                                           "gapd", "gapstat", "gapreport"),
                         [](const auto& info) { return info.param; });

}  // namespace
