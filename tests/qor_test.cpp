/// Tests for gap::qor: exact factor-bucket partition, gap-score
/// composition against core::decompose, snapshot capture, manifest
/// writing, and the gapreport CLI (in-process).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/flow.hpp"
#include "core/gap.hpp"
#include "designs/registry.hpp"
#include "json_lint.hpp"
#include "qor/attribution.hpp"
#include "qor/manifest.hpp"
#include "qor/report_cli.hpp"
#include "qor/snapshot.hpp"
#include "tech/technology.hpp"

namespace gap::qor {
namespace {

using common::cli::kExitIo;
using common::cli::kExitOk;
using common::cli::kExitUsage;

using core::run_context;
using core::signoff_sta_options;

/// The custom reference every gap score is measured against.
RunContext custom_reference() { return run_context(core::full_custom()); }

core::FlowResult run_flow(const core::Flow& flow, const core::Methodology& m,
                          const std::string& design = "alu16") {
  return flow.run(designs::make_design(design, m.datapath), m);
}

/// Every extracted path's five buckets must sum to its delay exactly
/// (the process bucket is the residual by construction) and the worst
/// path must agree with analyze().
void expect_exact_partition(const core::Flow& flow,
                            const core::Methodology& m) {
  const core::FlowResult r = run_flow(flow, m);
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r.nl, nullptr);
  const sta::StaOptions so = signoff_sta_options(m);
  const auto paths = sta::top_critical_paths(*r.nl, so, 5);
  ASSERT_FALSE(paths.empty());
  EXPECT_NEAR(paths.front().path_tau, r.timing.worst_path_tau,
              1e-6 * r.timing.worst_path_tau);
  for (const sta::CriticalPath& p : paths) {
    const PathAttribution a = attribute_path(*r.nl, p, so);
    EXPECT_GT(a.delay_tau, 0.0);
    EXPECT_NEAR(a.bucket_sum(), a.delay_tau, 1e-9 * a.delay_tau) << m.name;
    EXPECT_GT(a.logic_depth_tau, 0.0);
    EXPECT_GE(a.gates, 1u);
  }
}

TEST(AttributionTest, BucketsSumExactlyTypicalAsic) {
  core::Flow flow(tech::asic_025um());
  expect_exact_partition(flow, core::typical_asic());
}

TEST(AttributionTest, BucketsSumExactlyWorstCorner) {
  core::Flow flow(tech::asic_025um());
  core::Methodology m = core::typical_asic();
  m.corner = tech::corner_worst_case();
  expect_exact_partition(flow, m);
}

TEST(AttributionTest, BucketsSumExactlyFullCustom) {
  core::Flow flow(tech::asic_025um());
  expect_exact_partition(flow, core::full_custom());
}

TEST(AttributionTest, ProcessMarginIsCornerResidual) {
  // The corner multiplies every path piece uniformly, so the process
  // bucket must be exactly (k - 1) / k of the path delay.
  core::Flow flow(tech::asic_025um());
  core::Methodology m = core::typical_asic();
  m.corner = tech::corner_worst_case();
  const core::FlowResult r = run_flow(flow, m);
  ASSERT_TRUE(r.ok());
  const sta::StaOptions so = signoff_sta_options(m);
  const auto paths = sta::top_critical_paths(*r.nl, so, 1);
  ASSERT_FALSE(paths.empty());
  const PathAttribution a = attribute_path(*r.nl, paths.front(), so);
  const double k = m.corner.delay_factor;
  EXPECT_NEAR(a.process_margin_tau, a.delay_tau * (k - 1.0) / k,
              1e-6 * a.delay_tau);
}

TEST(AttributionTest, StaticPathHasZeroLogicStyleAndPositiveHeadroom) {
  core::Flow flow(tech::asic_025um());
  const core::Methodology m = core::typical_asic();
  const core::FlowResult r = run_flow(flow, m);
  ASSERT_TRUE(r.ok());
  const sta::StaOptions so = signoff_sta_options(m);
  const auto paths = sta::top_critical_paths(*r.nl, so, 1);
  ASSERT_FALSE(paths.empty());
  const PathAttribution a = attribute_path(*r.nl, paths.front(), so);
  // Static gates ARE their static equivalents.
  EXPECT_NEAR(a.logic_style_tau, 0.0, 1e-9);
  // ... but a domino re-implementation would be faster.
  EXPECT_GT(a.domino_headroom_tau, 0.0);
}

TEST(GapScoreTest, ProcessFactorIsExactlyTheCornerRatio) {
  PathAttribution a;
  a.delay_tau = 100.0;
  a.logic_depth_tau = 60.0;
  RunContext ctx;
  ctx.corner_delay_factor = tech::corner_worst_case().delay_factor;
  const GapScore s = gap_score(a, ctx, custom_reference());
  EXPECT_NEAR(s.process,
              tech::corner_worst_case().delay_factor /
                  core::full_custom().corner.delay_factor,
              1e-12);
}

TEST(GapScoreTest, CustomRunScoresNearOne) {
  // A run that already applies every custom technique has nothing left
  // on the table: each factor collapses to (or near) 1.
  core::Flow flow(tech::asic_025um());
  const core::Methodology m = core::full_custom();
  const core::FlowResult r = run_flow(flow, m);
  ASSERT_TRUE(r.ok());
  const sta::StaOptions so = signoff_sta_options(m);
  const auto paths = sta::top_critical_paths(*r.nl, so, 1);
  ASSERT_FALSE(paths.empty());
  const PathAttribution a = attribute_path(*r.nl, paths.front(), so);
  const GapScore s = gap_score(a, run_context(m), custom_reference());
  EXPECT_DOUBLE_EQ(s.process, 1.0);
  EXPECT_DOUBLE_EQ(s.logic_style, 1.0);  // already dynamic
  EXPECT_EQ(s.pipelining, 1.0);          // already at the custom depth
  EXPECT_LT(s.composed(), 4.0);          // far from the ASIC's ~x18
}

TEST(GapScoreTest, ComposedTracksMeasuredDecomposition) {
  // The single-run estimate must land in the same regime as the measured
  // re-run decomposition (core::decompose) on the same design: within a
  // factor of 2 of the product of individual contributions.
  core::Flow flow(tech::asic_025um());
  const auto factors = core::paper_factors();
  const core::GapReport measured = core::decompose(
      flow,
      [](designs::DatapathStyle style) {
        return designs::make_design("alu16", style);
      },
      core::reference_methodology(), factors);

  core::Methodology all_asic = core::reference_methodology();
  for (const core::Factor& f : factors) f.apply_asic(all_asic);
  const core::FlowResult r = run_flow(flow, all_asic);
  ASSERT_TRUE(r.ok());
  const sta::StaOptions so = signoff_sta_options(all_asic);
  const auto paths = sta::top_critical_paths(*r.nl, so, 1);
  ASSERT_FALSE(paths.empty());
  const PathAttribution a = attribute_path(*r.nl, paths.front(), so);
  const GapScore s = gap_score(a, run_context(all_asic), custom_reference());

  const double ratio = s.composed() / measured.product_individual;
  EXPECT_GE(ratio, 0.5) << "estimate " << s.composed() << " vs measured "
                        << measured.product_individual;
  EXPECT_LE(ratio, 2.0) << "estimate " << s.composed() << " vs measured "
                        << measured.product_individual;
}

TEST(SnapshotTest, CaptureMeasuresTheNetlist) {
  core::Flow flow(tech::asic_025um());
  const core::Methodology m = core::typical_asic();
  const core::FlowResult r = run_flow(flow, m);
  ASSERT_TRUE(r.ok());
  SnapshotOptions so;
  so.sta = signoff_sta_options(m);
  const QorSnapshot s = capture(*r.nl, so);
  EXPECT_NEAR(s.min_period_tau, r.timing.min_period_tau,
              1e-9 * r.timing.min_period_tau);
  EXPECT_GT(s.endpoints, 0u);
  EXPECT_GT(s.area_um2, 0.0);
  EXPECT_GT(s.total_wirelength_um, 0.0);
  EXPECT_GE(s.total_wirelength_um, s.critical_wirelength_um);
  EXPECT_GT(s.critical_path_gates, 0u);
  EXPECT_GT(s.slack_histogram.constrained, 0u);
  EXPECT_EQ(s.mc_samples, 0);  // not requested
}

TEST(SnapshotTest, McSpreadOnlyWhenRequestedAndThreadInvariant) {
  core::Flow flow(tech::asic_025um());
  const core::Methodology m = core::typical_asic();
  const core::FlowResult r = run_flow(flow, m);
  ASSERT_TRUE(r.ok());
  SnapshotOptions so;
  so.sta = signoff_sta_options(m);
  so.mc_samples = 16;
  so.mc_threads = 1;
  const QorSnapshot s1 = capture(*r.nl, so);
  so.mc_threads = 4;
  const QorSnapshot s4 = capture(*r.nl, so);
  EXPECT_EQ(s1.mc_samples, 16);
  EXPECT_GT(s1.mc_relative_spread, 0.0);
  EXPECT_EQ(s1.mc_relative_spread, s4.mc_relative_spread);
  EXPECT_EQ(s1.mc_mean_shift, s4.mc_mean_shift);
}

/// A small synthetic manifest for writer/CLI tests.
RunManifest tiny_manifest(double signoff_period, double composed_sizing) {
  RunManifest m;
  m.design = "alu16";
  m.context.methodology_name = "typical";
  m.context.corner_name = "typical";
  m.seed = 1;
  m.config = {{"design", "alu16"}, {"methodology", "typical"}};
  ManifestStage st;
  st.name = "signoff";
  st.status = "ok";
  st.metric_deltas = {{"sta.analyses", 1}};
  QorSnapshot q;
  q.min_period_tau = signoff_period;
  q.worst_path_tau = signoff_period * 0.9;
  q.slack_histogram.constrained = 3;
  q.slack_histogram.centers = {0.5, 1.5};
  q.slack_histogram.counts = {2, 1};
  st.qor = q;
  m.stages.push_back(st);
  ManifestAttribution attr;
  PathAttribution p;
  p.delay_tau = signoff_period * 0.9;
  p.logic_depth_tau = p.delay_tau;
  attr.paths.push_back(p);
  attr.score.sizing = composed_sizing;
  m.attribution = attr;
  m.ok = true;
  m.freq_mhz = 100.0;
  return m;
}

TEST(ManifestTest, WriteJsonIsValidAndDeterministic) {
  const RunManifest m = tiny_manifest(100.0, 1.2);
  const std::string a = write_json(m).value();
  const std::string b = write_json(m).value();
  EXPECT_EQ(a, b);
  EXPECT_TRUE(gap::testing::JsonLint::valid(a)) << a;
  EXPECT_NE(a.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(a.find("\"gapflow\""), std::string::npos);
}

TEST(ManifestTest, NonFiniteNumberIsAnInternalErrorNotJson) {
  RunManifest m = tiny_manifest(100.0, 1.2);
  m.stages[0].qor->min_period_ps = std::nan("");
  const auto r = write_json(m);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), common::ErrorCode::kInternal);
  EXPECT_NE(r.status().message().find("nan at \"min_period_ps\""),
            std::string::npos)
      << r.status().message();

  m = tiny_manifest(100.0, 1.2);
  m.freq_mhz = HUGE_VAL;
  EXPECT_FALSE(write_json(m).ok());
}

class GapreportTest : public ::testing::Test {
 protected:
  static void write_file(const std::string& path, const std::string& text) {
    std::ofstream os(path, std::ios::binary);
    os << text;
  }

  struct Captured {
    int code;
    std::string out;
    std::string err;
  };

  static Captured gapreport(const std::vector<std::string>& args) {
    std::vector<const char*> argv;
    argv.reserve(args.size());
    for (const std::string& a : args) argv.push_back(a.c_str());
    std::ostringstream out;
    std::ostringstream err;
    const int code = run_gapreport(static_cast<int>(argv.size()), argv.data(),
                                   out, err);
    return {code, out.str(), err.str()};
  }
};

TEST_F(GapreportTest, ShowRendersTextAndCsv) {
  const std::string path = "qor_test_show.json";
  write_file(path, write_json(tiny_manifest(100.0, 1.2)).value());
  const Captured text = gapreport({"show", path});
  EXPECT_EQ(text.code, kExitOk) << text.err;
  EXPECT_NE(text.out.find("alu16"), std::string::npos);
  EXPECT_NE(text.out.find("signoff"), std::string::npos);
  EXPECT_NE(text.out.find("gap score"), std::string::npos);
  const Captured csv = gapreport({"show", path, "--csv"});
  EXPECT_EQ(csv.code, kExitOk);
  EXPECT_NE(csv.out.find("stage,signoff,min_period_tau,100"),
            std::string::npos)
      << csv.out;
  std::remove(path.c_str());
}

TEST_F(GapreportTest, SelfDiffIsEmptyAndExitsZero) {
  const std::string path = "qor_test_selfdiff.json";
  write_file(path, write_json(tiny_manifest(100.0, 1.2)).value());
  const Captured r = gapreport({"diff", path, path, "--strict"});
  EXPECT_EQ(r.code, kExitOk) << r.err;
  EXPECT_NE(r.out.find("no differences"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(GapreportTest, RegressionPastThresholdFailsOnlyUnderStrict) {
  const std::string base = "qor_test_base.json";
  const std::string cur = "qor_test_cur.json";
  write_file(base, write_json(tiny_manifest(100.0, 1.2)).value());
  // +20% period
  write_file(cur, write_json(tiny_manifest(120.0, 1.2)).value());

  const Captured lax = gapreport({"diff", base, cur});
  EXPECT_EQ(lax.code, kExitOk);  // report-only without --strict
  EXPECT_NE(lax.out.find("REGRESSION"), std::string::npos);

  const Captured strict = gapreport({"diff", base, cur, "--strict"});
  EXPECT_EQ(strict.code, kExitRegression);

  // A generous threshold lets the same delta pass.
  const Captured loose =
      gapreport({"diff", base, cur, "--strict", "--threshold", "0.5"});
  EXPECT_EQ(loose.code, kExitOk);

  // An *improvement* is a difference but never a regression.
  const Captured improved = gapreport({"diff", cur, base, "--strict"});
  EXPECT_EQ(improved.code, kExitOk);

  std::remove(base.c_str());
  std::remove(cur.c_str());
}

TEST_F(GapreportTest, GapScoreRegressionIsCaught) {
  const std::string base = "qor_test_score_base.json";
  const std::string cur = "qor_test_score_cur.json";
  write_file(base, write_json(tiny_manifest(100.0, 1.2)).value());
  // sizing got worse
  write_file(cur, write_json(tiny_manifest(100.0, 1.5)).value());
  const Captured r = gapreport({"diff", base, cur, "--strict"});
  EXPECT_EQ(r.code, kExitRegression);
  EXPECT_NE(r.out.find("gap_score.sizing"), std::string::npos);
  std::remove(base.c_str());
  std::remove(cur.c_str());
}

TEST_F(GapreportTest, NonFiniteThresholdIsRejectedNotIgnored) {
  // A NaN threshold used to compare false against every delta, so
  // --strict silently passed a 1000x area blow-up.
  const std::string base = "qor_test_nan_base.json";
  const std::string cur = "qor_test_nan_cur.json";
  RunManifest before = tiny_manifest(100.0, 1.2);
  before.area_um2 = 1000.0;
  before.stages[0].qor->area_um2 = 1000.0;
  RunManifest after = before;
  after.area_um2 = 999999.0;
  after.stages[0].qor->area_um2 = 999999.0;
  write_file(base, write_json(before).value());
  write_file(cur, write_json(after).value());
  EXPECT_EQ(gapreport({"diff", base, cur, "--strict"}).code,
            kExitRegression);
  // Nor may the strict number reader take hex (strtod read 0x10 as 16),
  // padding or a negative threshold.
  for (const char* t :
       {"nan", "NaN", "inf", "-inf", "1e999", "0x10", " 0.5", "-0.1"}) {
    const Captured r =
        gapreport({"diff", base, cur, "--strict", "--threshold", t});
    EXPECT_EQ(r.code, kExitBadValue) << t;
    EXPECT_NE(r.err.find("bad --threshold"), std::string::npos) << r.err;
  }
  std::remove(base.c_str());
  std::remove(cur.c_str());
}

TEST_F(GapreportTest, ErrorExitCodes) {
  EXPECT_EQ(gapreport({"show", "/no/such/file.json"}).code, kExitIo);
  EXPECT_EQ(gapreport({"frobnicate"}).code, kExitUsage);
  EXPECT_EQ(gapreport({"show"}).code, kExitUsage);
  EXPECT_EQ(gapreport({"diff", "a"}).code, kExitUsage);
  EXPECT_EQ(gapreport({"show", "x.json", "--bogus"}).code, kExitUsage);

  const std::string bad = "qor_test_bad.json";
  write_file(bad, "this is not json");
  EXPECT_EQ(gapreport({"show", bad}).code, kExitIo);
  write_file(bad, "{\"valid\": \"json, wrong tool\"}");
  EXPECT_EQ(gapreport({"show", bad}).code, kExitIo);
  std::remove(bad.c_str());

  const std::string good = "qor_test_good.json";
  write_file(good, write_json(tiny_manifest(100.0, 1.2)).value());
  EXPECT_EQ(gapreport({"diff", good, good, "--threshold", "nope"}).code,
            kExitBadValue);
  EXPECT_EQ(gapreport({"diff", good, good, "--threshold"}).code,
            kExitBadValue);
  std::remove(good.c_str());

  EXPECT_EQ(gapreport({"--help"}).code, kExitOk);
}

TEST_F(GapreportTest, TruncatedManifestNamesLineAndColumn) {
  // A manifest cut after a line in its middle: the error names the line
  // and column where the document stops.
  const std::string text = write_json(tiny_manifest(100.0, 1.2)).value();
  const std::string cut = text.substr(0, text.find('\n', text.size() / 2) + 1);
  const std::string path = "qor_test_truncated.json";
  write_file(path, cut);
  const Captured r = gapreport({"show", path});
  std::remove(path.c_str());
  EXPECT_EQ(r.code, kExitIo);
  const int line = static_cast<int>(std::count(cut.begin(), cut.end(), '\n'));
  EXPECT_NE(r.err.find(path + ":" + std::to_string(line + 1) + ":1: "),
            std::string::npos)
      << r.err;
}

TEST(FlowQorCaptureTest, SnapshotsOnlyWhenEnabled) {
  core::Flow flow(tech::asic_025um());
  const auto aig =
      designs::make_design("alu16", designs::DatapathStyle::kSynthesized);
  const core::Methodology m = core::typical_asic();

  const core::FlowResult off = flow.run(aig, m);
  for (const core::StageReport& s : off.report.stages)
    EXPECT_FALSE(s.qor.has_value()) << s.name;

  core::FlowOptions fopt;
  fopt.qor.enabled = true;
  const core::FlowResult on = flow.run(aig, m, fopt);
  ASSERT_TRUE(on.ok());
  std::size_t with_qor = 0;
  for (const core::StageReport& s : on.report.stages) {
    if (s.status == core::StageStatus::kOk) {
      EXPECT_TRUE(s.qor.has_value()) << s.name;
      ++with_qor;
    }
  }
  EXPECT_GE(with_qor, 5u);  // map..signoff all capture
  // QoR never runs inside the stage timer, and the period trajectory
  // ends at the signed-off value.
  EXPECT_NEAR(on.report.stages.back().qor->min_period_tau,
              on.timing.min_period_tau, 1e-9 * on.timing.min_period_tau);
}

}  // namespace
}  // namespace gap::qor
