#include <gtest/gtest.h>

#include <cmath>

#include "tech/scaling.hpp"
#include "tech/technology.hpp"

namespace gap::tech {
namespace {

TEST(Technology, Fo4RuleMatchesPaperFootnote) {
  // Paper footnote 1: Leff = 0.15 um -> FO4 = 75 ps (IBM PowerPC process).
  const Technology t = custom_025um();
  EXPECT_DOUBLE_EQ(t.leff_um, 0.15);
  EXPECT_DOUBLE_EQ(t.fo4_ps(), 75.0);
}

TEST(Technology, AsicProcessFo4) {
  // Paper footnote 2: typical 0.25 um ASIC has Leff = 0.18 um.
  const Technology t = asic_025um();
  EXPECT_DOUBLE_EQ(t.fo4_ps(), 90.0);
}

TEST(Technology, TauIsFifthOfFo4) {
  const Technology t = asic_025um();
  EXPECT_DOUBLE_EQ(t.tau_ps() * 5.0, t.fo4_ps());
}

TEST(Technology, UnitConversionsRoundTrip) {
  const Technology t = asic_025um();
  EXPECT_DOUBLE_EQ(t.ps_to_tau(t.tau_to_ps(3.7)), 3.7);
  EXPECT_DOUBLE_EQ(t.fo4_to_tau(t.tau_to_fo4(12.0)), 12.0);
  EXPECT_DOUBLE_EQ(t.cap_to_units(t.unit_inv_cin_ff), 1.0);
}

TEST(Technology, UnitDriveDefinition) {
  // Driving one unit cap through the unit drive costs exactly one tau.
  const Technology t = asic_025um();
  const double fs = t.unit_drive_r_ohm() * t.unit_inv_cin_ff;
  EXPECT_NEAR(fs / 1000.0, t.tau_ps(), 1e-9);
}

TEST(Technology, CornersOrdered) {
  EXPECT_GT(corner_worst_case().delay_factor, corner_typical().delay_factor);
  EXPECT_LT(corner_fast_bin().delay_factor, corner_typical().delay_factor);
}

TEST(Technology, WorstCaseMatchesPaperRange) {
  // Section 8: typical is 60-70% faster than worst-case quotes.
  const double speedup = corner_worst_case().delay_factor / 1.0;
  EXPECT_GE(speedup, 1.60);
  EXPECT_LE(speedup, 1.70);
}

TEST(Scaling, GapOfSevenIsAboutFiveGenerations) {
  // Section 2: a 6-8x gap is about five process generations at 1.5x each.
  EXPECT_NEAR(generations_equivalent(7.0), 4.8, 0.2);
}

TEST(Scaling, GenerationsRoundTrip) {
  EXPECT_NEAR(std::pow(kSpeedPerGeneration, generations_equivalent(3.3)), 3.3,
              1e-9);
}

TEST(Scaling, ShrinkMatchesIntel856DataPoint) {
  // Section 8.1.1: 5% shrink gave 18% speed improvement.
  EXPECT_NEAR(speed_from_shrink(0.05), 1.18, 0.005);
}

TEST(Scaling, NoShrinkNoGain) {
  EXPECT_DOUBLE_EQ(speed_from_shrink(0.0), 1.0);
}

TEST(Technology, Ibm018HasCopperAndShortLeff) {
  const Technology t = ibm_018um();
  EXPECT_DOUBLE_EQ(t.leff_um, 0.12);
  // 500 * 0.12 = 60 ps; paper's measured 55 ps shows the rule is
  // conservative for tuned processes, so expect the rule value here.
  EXPECT_DOUBLE_EQ(t.fo4_ps(), 60.0);
  EXPECT_LT(t.wire_r_ohm_per_um, asic_025um().wire_r_ohm_per_um);
}

}  // namespace
}  // namespace gap::tech
