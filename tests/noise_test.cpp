#include <gtest/gtest.h>

#include "datapath/adders.hpp"
#include "library/builders.hpp"
#include "noise/crosstalk.hpp"
#include "place/place.hpp"
#include "synth/mapper.hpp"
#include "tech/technology.hpp"

namespace gap::noise {
namespace {

using datapath::AdderKind;
using library::Family;

class NoiseTest : public ::testing::Test {
 protected:
  NoiseTest() : lib_(library::make_rich_asic_library(tech::asic_025um())) {
    library::add_domino_cells(lib_);
  }

  netlist::Netlist placed(Family fam, double scatter = 1.0) {
    const auto aig = datapath::make_adder_aig(AdderKind::kCarryLookahead, 16);
    synth::MapOptions mopt;
    mopt.family = fam;
    auto nl = synth::map_to_netlist(aig, lib_, mopt, "d");
    place::PlaceOptions popt;
    if (scatter > 1.0) {
      popt.mode = place::PlacementMode::kScattered;
      popt.scatter_spread = scatter;
    }
    place::place(nl, popt);
    return nl;
  }

  library::CellLibrary lib_;
};

TEST_F(NoiseTest, BumpBoundedByOne) {
  auto nl = placed(Family::kStatic, 3.0);
  const NoiseReport r = analyze_noise(nl);
  EXPECT_LE(r.worst_bump_fraction, 1.0);
  EXPECT_GE(r.worst_bump_fraction, 0.0);
}

TEST_F(NoiseTest, DominoFailsWhereStaticSurvives) {
  // Same wiring conditions: domino's tighter margin must fail at least
  // as often as static, and on long-wire designs strictly more.
  auto nl_static = placed(Family::kStatic, 3.0);
  auto nl_domino = placed(Family::kDomino, 3.0);
  const NoiseReport rs = analyze_noise(nl_static);
  const NoiseReport rd = analyze_noise(nl_domino);
  EXPECT_GT(rd.domino_failures, rs.static_failures);
  EXPECT_GT(rd.domino_failures, 0u);
}

TEST_F(NoiseTest, CompactPlacementIsQuieter) {
  auto compact = placed(Family::kDomino, 1.0);
  auto sprawling = placed(Family::kDomino, 3.0);
  const NoiseReport rc = analyze_noise(compact);
  const NoiseReport rs = analyze_noise(sprawling);
  EXPECT_LE(rc.domino_failures, rs.domino_failures);
}

TEST_F(NoiseTest, ReportSortedWorstFirst) {
  auto nl = placed(Family::kStatic, 2.0);
  const NoiseReport r = analyze_noise(nl);
  for (std::size_t i = 1; i < r.nets.size(); ++i)
    EXPECT_GE(r.nets[i - 1].bump_fraction, r.nets[i].bump_fraction);
}

TEST_F(NoiseTest, UnroutedNetlistIsSilent) {
  const auto aig = datapath::make_adder_aig(AdderKind::kRipple, 4);
  const auto nl = synth::map_to_netlist(aig, lib_, synth::MapOptions{}, "d");
  const NoiseReport r = analyze_noise(nl);
  EXPECT_TRUE(r.nets.empty());
  EXPECT_EQ(r.domino_failures, 0u);
}

}  // namespace
}  // namespace gap::noise
