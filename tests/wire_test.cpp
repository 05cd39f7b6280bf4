#include <gtest/gtest.h>

#include "tech/technology.hpp"
#include "wire/elmore.hpp"
#include "wire/repeaters.hpp"

namespace gap::wire {
namespace {

tech::Technology t025() { return tech::asic_025um(); }

/// Delay in ps per mm of an optimally repeated minimum-width wire: a
/// 10 mm segment, long enough to be in the linear regime.
double repeated_ps_per_mm(const tech::Technology& t) {
  WireSegment seg;
  seg.length_um = 10000.0;
  return plan_repeaters(t, seg, t.unit_inv_cin_ff).delay_ps / 10.0;
}

TEST(Elmore, MatchesHandCalculation) {
  const tech::Technology t = t025();
  WireSegment seg;
  seg.length_um = 1000.0;
  // R = 0.08 * 1000 = 80 ohm; C = 0.2 * 1000 = 200 fF.
  // t = R * (C/2 + Csink) = 80 * (100 + 10) fF = 8800 fs = 8.8 ps.
  EXPECT_NEAR(elmore_delay_ps(t, seg, 10.0), 8.8, 1e-9);
}

TEST(Elmore, QuadraticInLength) {
  const tech::Technology t = t025();
  WireSegment a{1000.0};
  WireSegment b{2000.0};
  // With no sink, doubling length quadruples R*C/2.
  EXPECT_NEAR(elmore_delay_ps(t, b, 0.0) / elmore_delay_ps(t, a, 0.0), 4.0,
              1e-9);
}

TEST(Elmore, TauConversionConsistent) {
  const tech::Technology t = t025();
  WireSegment seg{2500.0};
  const double sink_units = 5.0;
  EXPECT_NEAR(elmore_delay_tau(t, seg, sink_units) * t.tau_ps(),
              elmore_delay_ps(t, seg, sink_units * t.unit_inv_cin_ff), 1e-9);
}

TEST(Repeaters, LongWiresGetRepeaters) {
  const tech::Technology t = t025();
  WireSegment seg{10000.0};
  const RepeaterPlan plan = plan_repeaters(t, seg, 2.0);
  EXPECT_GT(plan.num_repeaters, 0);
  EXPECT_GT(plan.repeater_size, 1.0);
}

TEST(Repeaters, RepeatedDelayIsLinearInLength) {
  const tech::Technology t = t025();
  WireSegment l1{10000.0};
  WireSegment l2{20000.0};
  const double d1 = plan_repeaters(t, l1, 2.0).delay_ps;
  const double d2 = plan_repeaters(t, l2, 2.0).delay_ps;
  // Doubling length roughly doubles (not quadruples) the repeated delay.
  EXPECT_NEAR(d2 / d1, 2.0, 0.35);
}

TEST(Repeaters, BeatsUnrepeatedOnLongWires) {
  const tech::Technology t = t025();
  WireSegment seg{15000.0};
  const RepeaterPlan plan = plan_repeaters(t, seg, 2.0);
  EXPECT_LT(plan.delay_ps, unrepeated_delay_ps(t, seg, 8.0, 2.0) * 0.7);
}

TEST(Repeaters, ShortWireNeedsNone) {
  const tech::Technology t = t025();
  WireSegment seg{50.0};
  const RepeaterPlan plan = plan_repeaters(t, seg, 2.0);
  EXPECT_EQ(plan.num_repeaters, 0);
}

TEST(Repeaters, FigureOfMeritSane) {
  // Optimally repeated minimum-width aluminum at 0.25 um: on the order
  // of 50-150 ps/mm (BACPAC-era numbers).
  const double d = repeated_ps_per_mm(t025());
  EXPECT_GT(d, 30.0);
  EXPECT_LT(d, 200.0);
}

TEST(Repeaters, CopperBeatsAluminum) {
  // IBM's 0.18 um copper process routes faster per mm.
  EXPECT_LT(repeated_ps_per_mm(tech::ibm_018um()),
            repeated_ps_per_mm(t025()));
}

}  // namespace
}  // namespace gap::wire
