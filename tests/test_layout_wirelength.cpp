#include "layout/wirelength.h"

#include <gtest/gtest.h>

namespace sega {
namespace {

DesignPoint small_int4() {
  DesignPoint dp;
  dp.arch = ArchKind::kMulCim;
  dp.precision = precision_int4();
  dp.n = 16;
  dp.h = 8;
  dp.l = 4;
  dp.k = 2;
  return dp;
}

class WirelengthTest : public ::testing::Test {
 protected:
  Technology tech = Technology::tsmc28();
};

TEST_F(WirelengthTest, ReportsPositiveTotals) {
  const DcimMacro macro = build_dcim_macro(small_int4());
  const MacroLayout layout = floorplan_macro(tech, macro);
  const WirelengthReport report = estimate_wirelength(layout, macro.netlist);
  EXPECT_GT(report.nets, 0u);
  EXPECT_GT(report.total_um, 0.0);
  EXPECT_GT(report.mean_net_um, 0.0);
  EXPECT_GE(report.max_net_um, report.mean_net_um);
  EXPECT_GT(report.demand_um_per_um2, 0.0);
}

TEST_F(WirelengthTest, NetsBoundedByDiePerimeter) {
  const DcimMacro macro = build_dcim_macro(small_int4());
  const MacroLayout layout = floorplan_macro(tech, macro);
  const WirelengthReport report = estimate_wirelength(layout, macro.netlist);
  EXPECT_LE(report.max_net_um, layout.width_um + layout.height_um + 1e-9);
}

TEST_F(WirelengthTest, Deterministic) {
  const DcimMacro macro = build_dcim_macro(small_int4());
  const MacroLayout layout = floorplan_macro(tech, macro);
  const WirelengthReport a = estimate_wirelength(layout, macro.netlist);
  const WirelengthReport b = estimate_wirelength(layout, macro.netlist);
  EXPECT_DOUBLE_EQ(a.total_um, b.total_um);
  EXPECT_EQ(a.nets, b.nets);
}

TEST_F(WirelengthTest, TwoCellNetHandComputed) {
  // Two inverters in one row: net between them has HPWL = centre distance.
  Netlist nl("pair");
  const auto x = nl.add_input("x", 1);
  const NetId mid = nl.new_net();
  const NetId y = nl.new_net();
  nl.add_cell(CellKind::kInv, {x[0]}, {mid});
  nl.add_cell(CellKind::kInv, {mid}, {y});
  nl.add_output("y", {y});

  MacroLayout layout;
  layout.name = "pair";
  RegionLayout region;
  region.name = "compute";
  region.placement.row_height_um = 1.0;  // every tile 1 um tall, row 0
  PlacedCell a, b;
  a.cell_index = 0;
  a.x = 0.0;
  a.width = 2.0;
  b.cell_index = 1;
  b.x = 10.0;
  b.width = 2.0;
  region.placement.cells = {a, b};
  layout.regions.push_back(region);
  layout.width_um = 20.0;
  layout.height_um = 1.0;

  const WirelengthReport report = estimate_wirelength(layout, nl);
  EXPECT_EQ(report.nets, 1u);  // only `mid` has two placed terminals
  EXPECT_DOUBLE_EQ(report.total_um, 10.0);  // |11-1| + 0
}

TEST_F(WirelengthTest, PlacedSramKeepsRowPlacerPosition) {
  // Regression: the memory-tile-centre fallback used to overwrite *every*
  // SRAM cell's position, clobbering coordinates the row placer had already
  // assigned.  An SRAM the placer positioned must keep that coordinate.
  Netlist nl("placed_sram");
  const NetId q = nl.new_net();
  const NetId y = nl.new_net();
  nl.add_cell(CellKind::kSram, {}, {q});
  nl.add_cell(CellKind::kInv, {q}, {y});
  nl.add_output("y", {y});

  MacroLayout layout;
  layout.name = "placed_sram";
  RegionLayout compute;
  compute.name = "compute";
  compute.placement.row_height_um = 1.0;  // every tile 1 um tall, row 0
  PlacedCell sram, inv;
  sram.cell_index = 0;
  sram.x = 0.0;
  sram.width = 2.0;  // centre (1, 0.5)
  inv.cell_index = 1;
  inv.x = 10.0;
  inv.width = 2.0;  // centre (11, 0.5)
  compute.placement.cells = {sram, inv};
  layout.regions.push_back(compute);
  RegionLayout memory;
  memory.name = "memory";
  memory.x_um = 100.0;
  memory.y_um = 0.0;
  memory.width_um = 10.0;
  memory.height_um = 10.0;  // centre (105, 5) — far from the placed SRAM
  layout.regions.push_back(memory);
  layout.width_um = 120.0;
  layout.height_um = 10.0;

  const WirelengthReport report = estimate_wirelength(layout, nl);
  EXPECT_EQ(report.nets, 1u);
  // Placed position honored: |11-1| + 0, not the 98.5 µm the tile-centre
  // clobber would produce.
  EXPECT_DOUBLE_EQ(report.total_um, 10.0);
}

TEST_F(WirelengthTest, ZeroSpanSramOnlyNetExcluded) {
  // Regression: a net whose terminals all collapse to the shared memory-tile
  // centre (HPWL == 0) is internal to the array and must not count toward
  // `nets` or deflate `mean_net_um`.
  Netlist nl("sram_pair");
  const NetId q = nl.new_net();
  const NetId z = nl.new_net();
  const NetId z2 = nl.new_net();
  nl.add_cell(CellKind::kSram, {}, {q});  // unplaced -> tile centre
  nl.add_cell(CellKind::kSram, {}, {q});  // unplaced -> tile centre
  nl.add_cell(CellKind::kInv, {z}, {z2});
  nl.add_cell(CellKind::kInv, {z2}, {z});

  MacroLayout layout;
  layout.name = "sram_pair";
  RegionLayout compute;
  compute.name = "compute";
  compute.placement.row_height_um = 1.0;  // every tile 1 um tall, row 0
  PlacedCell a, b;
  a.cell_index = 2;
  a.x = 0.0;
  a.width = 2.0;
  b.cell_index = 3;
  b.x = 6.0;
  b.width = 2.0;
  compute.placement.cells = {a, b};
  layout.regions.push_back(compute);
  RegionLayout memory;
  memory.name = "memory";
  memory.x_um = 20.0;
  memory.width_um = 4.0;
  memory.height_um = 4.0;
  layout.regions.push_back(memory);
  layout.width_um = 30.0;
  layout.height_um = 4.0;

  const WirelengthReport report = estimate_wirelength(layout, nl);
  // Net q (SRAM-SRAM, both at the tile centre, zero span) is excluded;
  // only the placed inverter pair's two nets count.
  EXPECT_EQ(report.nets, 2u);
  EXPECT_DOUBLE_EQ(report.total_um, 12.0);
  EXPECT_DOUBLE_EQ(report.mean_net_um, 6.0);
}

TEST_F(WirelengthTest, LargerMacroHasMoreWire) {
  DesignPoint small = small_int4();
  DesignPoint big = small_int4();
  big.n = 32;
  big.l = 2;  // same Wstore
  const DcimMacro m1 = build_dcim_macro(small);
  const DcimMacro m2 = build_dcim_macro(big);
  const WirelengthReport r1 =
      estimate_wirelength(floorplan_macro(tech, m1), m1.netlist);
  const WirelengthReport r2 =
      estimate_wirelength(floorplan_macro(tech, m2), m2.netlist);
  EXPECT_GT(r2.nets, r1.nets);
  EXPECT_GT(r2.total_um, r1.total_um);
}

}  // namespace
}  // namespace sega
