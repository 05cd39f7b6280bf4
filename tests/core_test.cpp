#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "core/gap.hpp"
#include "core/processors.hpp"
#include "designs/registry.hpp"
#include "netlist/checks.hpp"

namespace gap::core {
namespace {

class FlowTest : public ::testing::Test {
 protected:
  FlowTest() : flow_(tech::asic_025um()) {}
  Flow flow_;
};

TEST_F(FlowTest, LibrariesHaveExpectedCapabilities) {
  EXPECT_FALSE(flow_.library_for(LibraryKind::kPoorAsic).continuous_sizing);
  EXPECT_FALSE(flow_.library_for(LibraryKind::kRichAsic).continuous_sizing);
  EXPECT_TRUE(flow_.library_for(LibraryKind::kCustom).continuous_sizing);
  // Domino counterparts exist in every flow library.
  EXPECT_TRUE(flow_.library_for(LibraryKind::kRichAsic)
                  .has(library::Func::kNand2, library::Family::kDomino));
}

TEST_F(FlowTest, ContinuousSizingOnlyWithAContinuousLibrary) {
  // Every shipped methodology pairs continuous sizing with a library
  // that can realize it, so the one rule (continuous_sizing) reads the
  // same as the methodology's sizing level alone.
  std::vector<Methodology> ms;
  for (const std::string& name : methodology_names())
    ms.push_back(*methodology_by_name(name));
  for (const Factor& f : paper_factors()) {
    ms.push_back(reference_methodology());
    f.apply_asic(ms.back());
    ms.push_back(reference_methodology());
    f.apply_custom(ms.back());
  }
  for (const Methodology& m : ms)
    EXPECT_EQ(continuous_sizing(m, flow_.library_for(m.library)),
              m.sizing == SizingLevel::kContinuous)
        << m.name;
}

TEST_F(FlowTest, RunProducesValidImplementation) {
  const auto aig =
      designs::make_design("alu16", designs::DatapathStyle::kSynthesized);
  const FlowResult r = flow_.run(aig, typical_asic());
  ASSERT_NE(r.nl, nullptr);
  EXPECT_TRUE(netlist::verify(*r.nl).ok());
  EXPECT_GT(r.freq_mhz, 0.0);
  EXPECT_GT(r.area_um2, 0.0);
  EXPECT_GT(r.die_w_um, 0.0);
  EXPECT_GT(r.pipeline_registers, 0);  // boundary registers at least
}

TEST_F(FlowTest, MethodologyOrdering) {
  // typical ASIC < good ASIC < full custom, on the same design family.
  const auto aig_s =
      designs::make_design("alu16", designs::DatapathStyle::kSynthesized);
  const auto aig_m =
      designs::make_design("alu16", designs::DatapathStyle::kMacro);
  const double f_typ = flow_.run(aig_s, typical_asic()).freq_mhz;
  const double f_good = flow_.run(aig_m, good_asic()).freq_mhz;
  const double f_custom = flow_.run(aig_m, full_custom()).freq_mhz;
  EXPECT_LT(f_typ, f_good);
  EXPECT_LT(f_good, f_custom);
}

TEST_F(FlowTest, CornerOnlyChangesSpeedNotStructure) {
  const auto aig =
      designs::make_design("alu16", designs::DatapathStyle::kSynthesized);
  Methodology wc = reference_methodology();
  wc.corner = tech::corner_worst_case();
  Methodology fb = reference_methodology();
  fb.corner = tech::corner_fast_bin();
  const FlowResult rw = flow_.run(aig, wc);
  const FlowResult rf = flow_.run(aig, fb);
  EXPECT_NEAR(rf.freq_mhz / rw.freq_mhz, 1.65 / 0.87, 0.05);
}

TEST_F(FlowTest, DecomposeFactorsInPlausibleBands) {
  // Full E2 runs in the bench; here a smaller design keeps the test fast
  // and checks the structural properties of the report.
  const GapReport report = decompose(
      flow_,
      [](designs::DatapathStyle style) {
        return designs::make_design("alu16", style);
      },
      reference_methodology(), paper_factors());

  ASSERT_EQ(report.rows.size(), 5u);
  double product = 1.0;
  for (const FactorRow& row : report.rows) {
    EXPECT_GT(row.individual, 0.95) << row.name;
    product *= row.individual;
  }
  EXPECT_NEAR(product, report.product_individual, 1e-9);
  // Cumulative end point equals the joint ratio.
  EXPECT_NEAR(report.rows.back().cumulative, report.total_ratio, 1e-9);
  // The realized gap is in the single-digit-to-twenties range the paper
  // discusses (6-8 realized, 18 max).
  EXPECT_GT(report.total_ratio, 4.0);
  EXPECT_LT(report.total_ratio, 30.0);
  // Process factor is exact by construction.
  EXPECT_NEAR(report.rows[4].individual, 1.65 / 0.87, 0.02);
}

TEST(Methodology, SkewFractionsMatchPaper) {
  // Section 4.1: a 10% clock tree for ASICs, 5% for custom.
  EXPECT_DOUBLE_EQ(typical_asic().skew_fraction, 0.10);
  EXPECT_DOUBLE_EQ(full_custom().skew_fraction, 0.05);
}

TEST(Processors, SurveyMatchesPaperClocks) {
  for (const ProcessorModel& m : processor_survey()) {
    const double mhz = model_mhz(m);
    EXPECT_GE(mhz, m.paper_mhz_lo * 0.93) << m.name;
    EXPECT_LE(mhz, m.paper_mhz_hi * 1.07) << m.name;
  }
}

TEST(Processors, Fo4PerCycleMatchesSection4) {
  const auto survey = processor_survey();
  // Alpha ~15 FO4 logic -> 18 total; PPC 13 total; Xtensa ~44 total.
  for (const ProcessorModel& m : survey) {
    if (m.name == "IBM 1GHz PowerPC") {
      EXPECT_NEAR(model_fo4_per_cycle(m), 13.0, 0.5);
    }
    if (m.name == "Tensilica Xtensa") {
      EXPECT_NEAR(model_fo4_per_cycle(m), 44.0, 1.0);
    }
  }
}

TEST(Processors, GapIsSixToEight) {
  // Section 2: custom runs 6-8x faster than typical ASICs.
  const auto survey = processor_survey();
  double custom_best = 0.0, asic_typical = 0.0;
  for (const ProcessorModel& m : survey) {
    if (m.name == "IBM 1GHz PowerPC") custom_best = model_mhz(m);
    if (m.name == "typical ASIC (slow)") asic_typical = model_mhz(m);
  }
  const double gap = custom_best / asic_typical;
  EXPECT_GE(gap, 6.0);
  EXPECT_LE(gap, 9.0);
}

}  // namespace
}  // namespace gap::core
