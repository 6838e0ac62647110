#include "layout/def_writer.h"
#include "layout/floorplan.h"
#include "layout/row_placer.h"

#include <gtest/gtest.h>

namespace sega {
namespace {

DesignPoint fig6_int8() {
  DesignPoint dp;
  dp.arch = ArchKind::kMulCim;
  dp.precision = precision_int8();
  dp.n = 32;
  dp.h = 128;
  dp.l = 16;
  dp.k = 8;
  return dp;
}

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

// ---------------- row placer ----------------

TEST(RowPlacerTest, EmptyInput) {
  const RowPlacement p = place_rows({}, {}, {});
  EXPECT_TRUE(p.cells.empty());
  EXPECT_EQ(p.rows, 0);
}

TEST(RowPlacerTest, SingleCell) {
  PlacerOptions opt;
  const RowPlacement p = place_rows({3.0}, {0}, opt);
  ASSERT_EQ(p.cells.size(), 1u);
  EXPECT_DOUBLE_EQ(p.cells[0].x, 0.0);
  EXPECT_DOUBLE_EQ(p.y_of(p.cells[0]), 0.0);
  EXPECT_EQ(p.rows, 1);
  EXPECT_DOUBLE_EQ(p.height_um, opt.row_height_um);
}

TEST(RowPlacerTest, NoOverlapsWithinRows) {
  std::vector<double> widths;
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < 200; ++i) {
    widths.push_back(0.5 + static_cast<double>(i % 7) * 0.3);
    ids.push_back(i);
  }
  const RowPlacement p = place_rows(widths, ids, {});
  // Group by row, check sorted non-overlapping intervals.
  for (std::size_t i = 0; i < p.cells.size(); ++i) {
    for (std::size_t j = i + 1; j < p.cells.size(); ++j) {
      if (p.y_of(p.cells[i]) != p.y_of(p.cells[j])) continue;
      const auto& a = p.cells[i];
      const auto& b = p.cells[j];
      const bool disjoint =
          a.x + a.width <= b.x + 1e-9 || b.x + b.width <= a.x + 1e-9;
      EXPECT_TRUE(disjoint) << i << " vs " << j;
    }
  }
}

TEST(RowPlacerTest, RespectsTargetWidth) {
  std::vector<double> widths(100, 1.0);
  std::vector<std::size_t> ids(100);
  for (std::size_t i = 0; i < 100; ++i) ids[i] = i;
  PlacerOptions opt;
  opt.target_width_um = 10.0;
  const RowPlacement p = place_rows(widths, ids, opt);
  EXPECT_LE(p.width_um, 10.0 + 1e-9);
  EXPECT_EQ(p.rows, 10);
}

TEST(RowPlacerTest, UtilizationNearTargetForUniformCells) {
  std::vector<double> widths(1000, 0.8);
  std::vector<std::size_t> ids(1000);
  for (std::size_t i = 0; i < 1000; ++i) ids[i] = i;
  PlacerOptions opt;
  opt.target_utilization = 0.8;
  const RowPlacement p = place_rows(widths, ids, opt);
  EXPECT_GT(p.utilization(), 0.6);
  EXPECT_LE(p.utilization(), 1.0);
}

TEST(RowPlacerTest, AreaConservation) {
  std::vector<double> widths = {1.0, 2.0, 0.5, 3.0};
  const RowPlacement p = place_rows(widths, {0, 1, 2, 3}, {});
  EXPECT_DOUBLE_EQ(p.cell_area_um2, (1.0 + 2.0 + 0.5 + 3.0) * p.row_height_um);
}

TEST(RowPlacerTest, WideCellGetsOwnRow) {
  PlacerOptions opt;
  opt.target_width_um = 2.0;
  const RowPlacement p = place_rows({5.0, 1.0}, {0, 1}, opt);
  // Row width expands to fit the widest cell; the narrow one starts row 2.
  EXPECT_GE(p.width_um, 5.0);
}

// ---------------- floorplan ----------------

TEST(FloorplanTest, ThreeRegionsStacked) {
  const Technology tech = Technology::tsmc28();
  const DcimMacro macro = build_dcim_macro(small_int4());
  const MacroLayout layout = floorplan_macro(tech, macro);
  ASSERT_EQ(layout.regions.size(), 3u);
  ASSERT_NE(layout.region("memory"), nullptr);
  ASSERT_NE(layout.region("compute"), nullptr);
  ASSERT_NE(layout.region("peripherals"), nullptr);
  // Vertical stack: no overlap in y.
  const auto* p = layout.region("peripherals");
  const auto* c = layout.region("compute");
  const auto* m = layout.region("memory");
  EXPECT_GE(c->y_um, p->y_um + p->height_um - 1e-9);
  EXPECT_GE(m->y_um, c->y_um + c->height_um - 1e-9);
  EXPECT_NEAR(m->y_um + m->height_um, layout.height_um, 1e-6);
}

TEST(FloorplanTest, MemoryRegionHoldsAllSramArea) {
  const Technology tech = Technology::tsmc28();
  const DcimMacro macro = build_dcim_macro(small_int4());
  const MacroLayout layout = floorplan_macro(tech, macro);
  const auto* m = layout.region("memory");
  const double sram_area =
      tech.area_um2(tech.cell(CellKind::kSram).area) * 16 * 8 * 4;
  EXPECT_DOUBLE_EQ(m->cell_area_um2, sram_area);
  EXPECT_EQ(m->cell_count, 16 * 8 * 4);
  // The tile must physically hold its cells.
  EXPECT_GE(m->width_um * m->height_um, sram_area - 1e-9);
}

TEST(FloorplanTest, AllNonSramCellsPlaced) {
  const Technology tech = Technology::tsmc28();
  const DcimMacro macro = build_dcim_macro(small_int4());
  const MacroLayout layout = floorplan_macro(tech, macro);
  std::size_t placed = 0;
  for (const auto& r : layout.regions) placed += r.placement.cells.size();
  std::size_t non_sram = 0;
  for (const auto& c : macro.netlist.cells()) {
    if (c.kind != CellKind::kSram) ++non_sram;
  }
  EXPECT_EQ(placed, non_sram);
}

TEST(FloorplanTest, UtilizationIsPhysical) {
  const Technology tech = Technology::tsmc28();
  const DcimMacro macro = build_dcim_macro(small_int4());
  const MacroLayout layout = floorplan_macro(tech, macro);
  EXPECT_GT(layout.utilization(), 0.3);
  EXPECT_LE(layout.utilization(), 1.0);
}

TEST(FloorplanTest, DeterministicOutput) {
  const Technology tech = Technology::tsmc28();
  const DcimMacro macro = build_dcim_macro(small_int4());
  const MacroLayout a = floorplan_macro(tech, macro);
  const MacroLayout b = floorplan_macro(tech, macro);
  EXPECT_DOUBLE_EQ(a.width_um, b.width_um);
  EXPECT_DOUBLE_EQ(a.height_um, b.height_um);
  EXPECT_DOUBLE_EQ(a.area_mm2, b.area_mm2);
}

TEST(FloorplanTest, Fig6MacroLandsNearPaperArea) {
  // Paper Fig. 6(a): INT8, 8K weights, 0.079 mm^2 (343um x 229um).
  const Technology tech = Technology::tsmc28();
  const DcimMacro macro = build_dcim_macro(fig6_int8());
  const MacroLayout layout = floorplan_macro(tech, macro);
  EXPECT_GT(layout.area_mm2, 0.079 * 0.5);
  EXPECT_LT(layout.area_mm2, 0.079 * 2.0);
}

TEST(FloorplanTest, ComputeRegionLargerThanPeripherals) {
  const Technology tech = Technology::tsmc28();
  const DcimMacro macro = build_dcim_macro(fig6_int8());
  const MacroLayout layout = floorplan_macro(tech, macro);
  EXPECT_GT(layout.region("compute")->cell_area_um2,
            layout.region("peripherals")->cell_area_um2);
}

// ---------------- DEF writer ----------------

TEST(DefWriterTest, StructurallyValidDef) {
  const Technology tech = Technology::tsmc28();
  const DcimMacro macro = build_dcim_macro(small_int4());
  const MacroLayout layout = floorplan_macro(tech, macro);
  const std::string def = write_def(layout, macro.netlist);
  EXPECT_NE(def.find("VERSION 5.8 ;"), std::string::npos);
  EXPECT_NE(def.find("DIEAREA ( 0 0 )"), std::string::npos);
  EXPECT_NE(def.find("REGIONS 3 ;"), std::string::npos);
  EXPECT_NE(def.find("region_memory"), std::string::npos);
  EXPECT_NE(def.find("SEGA_SRAM_ARRAY"), std::string::npos);
  EXPECT_NE(def.find("END COMPONENTS"), std::string::npos);
  EXPECT_NE(def.find("END DESIGN"), std::string::npos);
}

TEST(DefWriterTest, ComponentCountMatchesHeader) {
  const Technology tech = Technology::tsmc28();
  const DcimMacro macro = build_dcim_macro(small_int4());
  const MacroLayout layout = floorplan_macro(tech, macro);
  const std::string def = write_def(layout, macro.netlist);
  // Count "- u" component lines + the sram array.
  std::size_t lines = 1;
  for (std::size_t p = def.find("\n- u"); p != std::string::npos;
       p = def.find("\n- u", p + 1)) {
    ++lines;
  }
  const std::string header = "COMPONENTS ";
  const std::size_t hp = def.find(header);
  ASSERT_NE(hp, std::string::npos);
  const std::size_t count =
      static_cast<std::size_t>(std::stoull(def.substr(hp + header.size())));
  EXPECT_EQ(count, lines);
}

// ---------------- component group bookkeeping ----------------

TEST(NetlistGroupTest, MacroCellsAreTagged) {
  const DcimMacro macro = build_dcim_macro(small_int4());
  const Netlist& nl = macro.netlist;
  std::map<std::string, std::int64_t> by_group;
  for (std::size_t ci = 0; ci < nl.cells().size(); ++ci) {
    by_group[nl.group_names()[static_cast<std::size_t>(nl.cell_group(ci))]]++;
  }
  EXPECT_GT(by_group["sram"], 0);
  EXPECT_GT(by_group["compute"], 0);
  EXPECT_GT(by_group["adder_tree"], 0);
  EXPECT_GT(by_group["accumulator"], 0);
  EXPECT_GT(by_group["fusion"], 0);
  EXPECT_GT(by_group["input_buffer"], 0);
  EXPECT_EQ(by_group["sram"], 16 * 8 * 4);
}

TEST(NetlistGroupTest, GroupCensusSumsToTotal) {
  const DcimMacro macro = build_dcim_macro(small_int4());
  const Netlist& nl = macro.netlist;
  GateCount sum;
  for (std::size_t g = 0; g < nl.group_names().size(); ++g) {
    sum += nl.census_of_group(static_cast<int>(g));
  }
  EXPECT_TRUE(sum == nl.census());
}

}  // namespace
}  // namespace sega
