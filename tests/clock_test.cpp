#include <gtest/gtest.h>

#include "clock/htree.hpp"
#include "tech/technology.hpp"

namespace gap::clock {
namespace {

TEST(HTree, LevelsCoverSinks) {
  ClockTreeOptions opt;
  opt.num_sinks = 4096;
  const auto r = build_htree(tech::asic_025um(), opt);
  EXPECT_GE(1 << (2 * r.levels), 4096);
  EXPECT_LT(1 << (2 * (r.levels - 1)), 4096);
}

TEST(HTree, CustomSkewLowerThanAsic) {
  ClockTreeOptions asic;
  asic.quality = TreeQuality::kAsic;
  ClockTreeOptions custom = asic;
  custom.quality = TreeQuality::kCustom;
  const tech::Technology t = tech::asic_025um();
  const auto ra = build_htree(t, asic);
  const auto rc = build_htree(t, custom);
  EXPECT_LT(rc.skew_ps, ra.skew_ps);
  // Note: the paper's "10% vs 5%" compares fractions of *different*
  // cycle times; the absolute tree-skew ratio at equal die size is
  // larger because custom trees are also deskewed.
  EXPECT_GT(ra.skew_ps / rc.skew_ps, 1.6);
  EXPECT_LT(ra.skew_ps / rc.skew_ps, 10.0);
}

TEST(HTree, SkewFractionsMatchPaperAtRepresentativePeriods) {
  // ASIC: a 250 MHz-class ASIC (4 ns period) should see skew near 10%.
  const tech::Technology t = tech::asic_025um();
  ClockTreeOptions asic;
  asic.quality = TreeQuality::kAsic;
  const auto ra = build_htree(t, asic);
  const double asic_frac = ra.skew_fraction(4000.0);
  EXPECT_GE(asic_frac, 0.06);
  EXPECT_LE(asic_frac, 0.14);

  // Custom: the 600 MHz Alpha (1667 ps) had 75 ps skew, about 5%.
  const tech::Technology tc = tech::custom_025um();
  ClockTreeOptions custom;
  custom.quality = TreeQuality::kCustom;
  custom.die_w_um = 15000.0;  // 2.25 cm^2 die
  custom.die_h_um = 15000.0;
  const auto rc = build_htree(tc, custom);
  const double custom_frac = rc.skew_fraction(1667.0);
  EXPECT_GE(custom_frac, 0.025);
  EXPECT_LE(custom_frac, 0.075);
}

TEST(HTree, BiggerDieMoreInsertionDelay) {
  ClockTreeOptions small;
  small.die_w_um = small.die_h_um = 3000.0;
  ClockTreeOptions big = small;
  big.die_w_um = big.die_h_um = 15000.0;
  const tech::Technology t = tech::asic_025um();
  EXPECT_LT(build_htree(t, small).insertion_delay_ps,
            build_htree(t, big).insertion_delay_ps);
}

TEST(HTree, MoreSinksMoreLevels) {
  ClockTreeOptions a;
  a.num_sinks = 16;
  ClockTreeOptions b;
  b.num_sinks = 65536;
  const tech::Technology t = tech::asic_025um();
  EXPECT_LT(build_htree(t, a).levels, build_htree(t, b).levels);
}

}  // namespace
}  // namespace gap::clock
