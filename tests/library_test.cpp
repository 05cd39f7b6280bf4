#include <gtest/gtest.h>

#include "library/builders.hpp"
#include "library/cell.hpp"
#include "library/library.hpp"
#include "tech/technology.hpp"

namespace gap::library {
namespace {

tech::Technology t025() { return tech::asic_025um(); }

TEST(FuncTraits, InverterIsCanonical) {
  const FuncTraits& tr = traits(Func::kInv);
  EXPECT_EQ(tr.num_inputs, 1);
  EXPECT_TRUE(tr.inverting);
  EXPECT_DOUBLE_EQ(tr.logical_effort, 1.0);
  EXPECT_DOUBLE_EQ(tr.parasitic, 1.0);
}

TEST(FuncTraits, Nand2LogicalEffort) {
  EXPECT_NEAR(traits(Func::kNand2).logical_effort, 4.0 / 3.0, 1e-12);
}

TEST(FuncTraits, NorWorseThanNand) {
  // PMOS stacks make NOR slower than NAND (standard logical-effort fact).
  EXPECT_GT(traits(Func::kNor2).logical_effort,
            traits(Func::kNand2).logical_effort);
}

TEST(FuncTraits, AllFuncsHavePositiveValues) {
  for (int i = 0; i < kNumFuncs; ++i) {
    const FuncTraits& tr = traits(static_cast<Func>(i));
    EXPECT_GT(tr.num_inputs, 0) << tr.name;
    EXPECT_GT(tr.num_transistors, 0) << tr.name;
    EXPECT_GT(tr.logical_effort, 0.0) << tr.name;
    EXPECT_GE(tr.parasitic, 0.0) << tr.name;
  }
}

TEST(Cell, Fo4DelayOfUnitInverter) {
  // An FO4 inverter (load = 4 identical inverters) has delay p + 4g = 5 tau.
  Cell inv;
  inv.func = Func::kInv;
  inv.drive = 1.0;
  inv.logical_effort = 1.0;
  inv.parasitic = 1.0;
  EXPECT_DOUBLE_EQ(inv.delay(4.0 * inv.input_cap()), 5.0);
}

TEST(Cell, DelayScalesWithDrive) {
  Cell a, b;
  a.logical_effort = b.logical_effort = 4.0 / 3.0;
  a.parasitic = b.parasitic = 2.0;
  a.drive = 1.0;
  b.drive = 4.0;
  EXPECT_GT(a.delay(8.0), b.delay(8.0));
  // Effort term scales exactly with 1/drive.
  EXPECT_DOUBLE_EQ(a.delay(8.0) - a.parasitic, 4.0 * (b.delay(8.0) - b.parasitic));
}

TEST(CellLibrary, AddAndFind) {
  CellLibrary lib("test", t025());
  Cell c;
  c.name = "inv_x1";
  c.func = Func::kInv;
  c.drive = 1.0;
  const CellId id = lib.add(c);
  EXPECT_EQ(lib.find("inv_x1"), id);
  EXPECT_FALSE(lib.find("missing").has_value());
}

TEST(CellLibrary, CellsOfSortedByDrive) {
  CellLibrary lib("test", t025());
  for (double d : {4.0, 1.0, 2.0}) {
    Cell c;
    c.name = "inv_x" + std::to_string(static_cast<int>(d));
    c.func = Func::kInv;
    c.drive = d;
    lib.add(c);
  }
  std::vector<double> drives;
  for (CellId id : lib.cells_of(Func::kInv, Family::kStatic))
    drives.push_back(lib.cell(id).drive);
  ASSERT_EQ(drives.size(), 3u);
  EXPECT_TRUE(std::is_sorted(drives.begin(), drives.end()));
}

TEST(CellLibrary, BestForDrivePicksSmallestSufficient) {
  const CellLibrary lib = make_rich_asic_library(t025());
  const auto id = lib.best_for_drive(Func::kNand2, Family::kStatic, 5.0);
  ASSERT_TRUE(id.has_value());
  EXPECT_DOUBLE_EQ(lib.cell(*id).drive, 6.0);
}

TEST(CellLibrary, BestForDriveSaturatesAtLargest) {
  const CellLibrary lib = make_rich_asic_library(t025());
  const auto id = lib.best_for_drive(Func::kNand2, Family::kStatic, 1e9);
  ASSERT_TRUE(id.has_value());
  EXPECT_DOUBLE_EQ(lib.cell(*id).drive, 32.0);
}

TEST(Builders, RichLibraryHasDualPolarity) {
  const CellLibrary lib = make_rich_asic_library(t025());
  EXPECT_TRUE(lib.has(Func::kNand2));
  EXPECT_TRUE(lib.has(Func::kAnd2));
  EXPECT_TRUE(lib.has(Func::kNor2));
  EXPECT_TRUE(lib.has(Func::kOr2));
  EXPECT_EQ(lib.cells_of(Func::kInv, Family::kStatic).size(), 10u);
}

TEST(Builders, PoorLibraryIsRestricted) {
  const CellLibrary lib = make_poor_asic_library(t025());
  // Two drive strengths, single polarity (section 6.1).
  EXPECT_EQ(lib.cells_of(Func::kNand2, Family::kStatic).size(), 2u);
  EXPECT_FALSE(lib.has(Func::kAnd2));
  EXPECT_FALSE(lib.has(Func::kOr2));
  EXPECT_FALSE(lib.has(Func::kBuf));
  EXPECT_FALSE(lib.has(Func::kLatch));
}

TEST(Builders, CustomLibraryCapabilities) {
  const CellLibrary lib = make_custom_library(t025());
  EXPECT_TRUE(lib.continuous_sizing);
  EXPECT_GE(lib.clock_phases, 4);
  EXPECT_FALSE(lib.guard_banded_sequentials);
  EXPECT_TRUE(lib.has(Func::kLatch));
  // Fine drive ladder: many more sizes than the rich ASIC library.
  EXPECT_GT(lib.cells_of(Func::kInv, Family::kStatic).size(), 15u);
}

TEST(Builders, CustomSequentialsLeanerThanAsic) {
  const SequentialTiming asic = asic_dff_timing();
  const SequentialTiming custom = custom_dff_timing();
  EXPECT_LT(custom.setup_fo4 + custom.clk_to_q_fo4,
            asic.setup_fo4 + asic.clk_to_q_fo4);
}

TEST(Builders, DominoCellsFaster) {
  CellLibrary lib = make_rich_asic_library(t025());
  add_domino_cells(lib);
  const auto stat = lib.smallest(Func::kAnd2, Family::kStatic);
  const auto dom = lib.smallest(Func::kAnd2, Family::kDomino);
  ASSERT_TRUE(stat.has_value());
  ASSERT_TRUE(dom.has_value());
  const Cell& s = lib.cell(*stat);
  Cell d = lib.cell(*dom);
  // Section 7: domino 50-100% faster at the gate level. The fair
  // comparison is at equal input capacitance (same load presented to the
  // driving stage): the domino gate's lower logical effort lets it carry
  // more drive for the same footprint.
  d.drive = s.input_cap() / d.logical_effort;
  const double load = 6.0;
  const double ratio = s.delay(load) / d.delay(load);
  EXPECT_GE(ratio, 1.5);
  EXPECT_LE(ratio, 2.2);
  EXPECT_GT(d.area_um2, s.area_um2);  // dual-rail costs area
}

TEST(Builders, DominoSkipsSequentials) {
  CellLibrary lib = make_rich_asic_library(t025());
  add_domino_cells(lib);
  EXPECT_FALSE(lib.has(Func::kDff, Family::kDomino));
}

TEST(Builders, FlopTimingInTau) {
  const CellLibrary lib = make_rich_asic_library(t025());
  const auto dff = lib.smallest(Func::kDff, Family::kStatic);
  ASSERT_TRUE(dff.has_value());
  const Cell& c = lib.cell(*dff);
  // asic_dff_timing is in FO4; stored values are tau (1 FO4 = 5 tau).
  EXPECT_DOUBLE_EQ(c.setup_tau, asic_dff_timing().setup_fo4 * 5.0);
  EXPECT_DOUBLE_EQ(c.clk_to_q_tau, asic_dff_timing().clk_to_q_fo4 * 5.0);
}

TEST(Builders, AreaScalesWithDrive) {
  const CellLibrary lib = make_rich_asic_library(t025());
  const auto x1 = lib.best_for_drive(Func::kNand2, Family::kStatic, 1.0);
  const auto x4 = lib.best_for_drive(Func::kNand2, Family::kStatic, 4.0);
  EXPECT_NEAR(lib.cell(*x4).area_um2, 4.0 * lib.cell(*x1).area_um2, 1e-9);
}

}  // namespace
}  // namespace gap::library
