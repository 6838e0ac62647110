// Differential test of the layout stage against its reference
// implementation.
//
// The reference below is the row placer, floorplanner, HPWL estimator and
// DEF writer as they were before placements were written in place: every
// placed cell copied into a 40-byte record with its own y and height, the
// per-region index and width vectors built first, and every terminal
// position copied into a per-cell Point before the net boxes were folded in
// netlist order.  The production code must reproduce it bit for bit: every
// WirelengthReport field, every region's geometry and area, every placed
// cell's coordinates, the macro's extent, and the DEF text.
//
// Points: the whole Wstore-256 INT8 space (the layout_cell benchmark's),
// the three default validate knees at Wstore 4096, and seeded valid points
// of INT4, FP8 and BF16 at Wstore 1024-4096, with signed-weight and
// pipelined-tree variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "arch/space.h"
#include "layout/def_writer.h"
#include "layout/floorplan.h"
#include "layout/wirelength.h"
#include "rtl/macro_builder.h"
#include "util/assert.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sega {
namespace {

// ------------------------------------------------------------- reference

namespace ref {

struct PlacedCell {
  std::size_t cell_index = 0;
  double x = 0.0;
  double y = 0.0;
  double width = 0.0;
  double height = 0.0;
};

struct RowPlacement {
  std::vector<PlacedCell> cells;
  double row_height_um = 0.0;
  double width_um = 0.0;
  double height_um = 0.0;
  double cell_area_um2 = 0.0;
  int rows = 0;

  double utilization() const {
    const double box = width_um * height_um;
    return box > 0.0 ? cell_area_um2 / box : 0.0;
  }
};

struct RegionLayout {
  std::string name;
  double x_um = 0.0;
  double y_um = 0.0;
  double width_um = 0.0;
  double height_um = 0.0;
  double cell_area_um2 = 0.0;
  std::int64_t cell_count = 0;
  RowPlacement placement;
};

struct MacroLayout {
  std::string name;
  double width_um = 0.0;
  double height_um = 0.0;
  double area_mm2 = 0.0;
  std::vector<RegionLayout> regions;

  const RegionLayout* region(const std::string& rname) const {
    for (const auto& r : regions) {
      if (r.name == rname) return &r;
    }
    return nullptr;
  }
  double utilization() const {
    double cell_area = 0.0;
    for (const auto& r : regions) cell_area += r.cell_area_um2;
    const double box = width_um * height_um;
    return box > 0.0 ? cell_area / box : 0.0;
  }
};

RowPlacement place_rows(const std::vector<double>& widths,
                        const std::vector<std::size_t>& cell_indices,
                        const PlacerOptions& options) {
  SEGA_EXPECTS(widths.size() == cell_indices.size());
  SEGA_EXPECTS(options.row_height_um > 0.0);
  SEGA_EXPECTS(options.target_utilization > 0.0 &&
               options.target_utilization <= 1.0);

  RowPlacement out;
  out.row_height_um = options.row_height_um;
  if (widths.empty()) return out;

  double total_width = 0.0;
  double max_cell_width = 0.0;
  for (const double w : widths) {
    SEGA_EXPECTS(w > 0.0);
    total_width += w + options.cell_spacing_um;
    max_cell_width = std::max(max_cell_width, w);
  }
  out.cell_area_um2 = 0.0;

  double row_width = options.target_width_um;
  if (row_width <= 0.0) {
    const double area_needed =
        total_width * options.row_height_um / options.target_utilization;
    row_width = std::sqrt(area_needed);
  }
  row_width = std::max(row_width, max_cell_width);

  double x = 0.0;
  int row = 0;
  double used_width = 0.0;
  out.cells.reserve(widths.size());
  for (std::size_t i = 0; i < widths.size(); ++i) {
    if (x + widths[i] > row_width && x > 0.0) {
      used_width = std::max(used_width, x);
      x = 0.0;
      ++row;
    }
    PlacedCell pc;
    pc.cell_index = cell_indices[i];
    pc.x = x;
    pc.y = row * options.row_height_um;
    pc.width = widths[i];
    pc.height = options.row_height_um;
    out.cells.push_back(pc);
    out.cell_area_um2 += widths[i] * options.row_height_um;
    x += widths[i] + options.cell_spacing_um;
  }
  used_width = std::max(used_width, x);

  out.rows = row + 1;
  out.width_um = used_width;
  out.height_um = out.rows * options.row_height_um;
  SEGA_ENSURES(out.utilization() <= 1.0 + 1e-9);
  return out;
}

bool is_compute_group(const std::string& g) {
  return g == "compute" || g == "adder_tree" || g == "accumulator";
}

RegionLayout tile_memory(const Technology& tech, const DcimMacro& macro,
                         const FloorplanOptions& options) {
  RegionLayout mem;
  mem.name = "memory";
  const std::int64_t bits = macro.dp.n * macro.dp.h * macro.dp.l;
  const double cell_area = tech.area_um2(tech.cell(CellKind::kSram).area);
  const double cell_h = std::sqrt(cell_area / options.sram_cell_aspect);
  const double cell_w = options.sram_cell_aspect * cell_h;
  double cols = static_cast<double>(macro.dp.n * macro.dp.l);
  double rows = static_cast<double>(macro.dp.h);
  while (cols * cell_w > 2.0 * rows * cell_h && cols >= 2.0) {
    cols = std::ceil(cols / 2.0);
    rows *= 2.0;
  }
  mem.width_um = cols * cell_w;
  mem.height_um = rows * cell_h;
  mem.cell_area_um2 = static_cast<double>(bits) * cell_area;
  mem.cell_count = bits;
  return mem;
}

RegionLayout place_region(const std::string& name, const Technology& tech,
                          const Netlist& nl,
                          const std::vector<std::size_t>& cells,
                          double target_width, const PlacerOptions& base) {
  RegionLayout region;
  region.name = name;
  region.cell_count = static_cast<std::int64_t>(cells.size());
  if (cells.empty()) return region;

  std::array<double, kCellKindCount> width_of{};
  for (int k = 0; k < kCellKindCount; ++k) {
    width_of[static_cast<std::size_t>(k)] = cell_tile_width(
        tech, static_cast<CellKind>(k), base.row_height_um);
  }
  std::vector<double> widths;
  widths.reserve(cells.size());
  for (const std::size_t ci : cells) {
    widths.push_back(width_of[static_cast<std::size_t>(nl.cell_kind(ci))]);
  }
  PlacerOptions opt = base;
  opt.target_width_um = target_width;
  region.placement = ref::place_rows(widths, cells, opt);
  region.width_um = target_width > 0.0
                        ? std::max(target_width, region.placement.width_um)
                        : region.placement.width_um;
  region.height_um = region.placement.height_um;
  region.cell_area_um2 = region.placement.cell_area_um2;
  return region;
}

MacroLayout floorplan_macro(const Technology& tech, const DcimMacro& macro,
                            const FloorplanOptions& options = {}) {
  MacroLayout layout;
  layout.name = macro.netlist.name();
  RegionLayout mem = tile_memory(tech, macro, options);

  const Netlist& nl = macro.netlist;
  std::vector<std::uint8_t> compute_group(nl.group_names().size());
  for (std::size_t g = 0; g < compute_group.size(); ++g) {
    compute_group[g] = is_compute_group(nl.group_names()[g]) ? 1 : 0;
  }
  std::vector<std::size_t> compute_cells;
  std::vector<std::size_t> periph_cells;
  for (std::size_t ci = 0; ci < nl.cells().size(); ++ci) {
    if (nl.cell_kind(ci) == CellKind::kSram) continue;
    const auto g = static_cast<std::size_t>(nl.cell_group(ci));
    (compute_group[g] != 0 ? compute_cells : periph_cells).push_back(ci);
  }

  std::array<double, kCellKindCount> area_of{};
  for (int k = 0; k < kCellKindCount; ++k) {
    area_of[static_cast<std::size_t>(k)] =
        tech.area_um2(tech.cell(static_cast<CellKind>(k)).area);
  }
  double other_area = 0.0;
  for (const std::size_t ci : compute_cells) {
    other_area += area_of[static_cast<std::size_t>(nl.cell_kind(ci))];
  }
  for (const std::size_t ci : periph_cells) {
    other_area += area_of[static_cast<std::size_t>(nl.cell_kind(ci))];
  }
  const double est_total =
      mem.width_um * mem.height_um +
      other_area / options.placer.target_utilization;
  const double aspect_width = std::sqrt(est_total * options.target_aspect);
  const double region_width = std::max(mem.width_um, aspect_width);

  RegionLayout compute = place_region("compute", tech, nl, compute_cells,
                                      region_width, options.placer);
  RegionLayout periph = place_region("peripherals", tech, nl, periph_cells,
                                     region_width, options.placer);

  const double width =
      std::max({mem.width_um, compute.width_um, periph.width_um});
  const double channel =
      options.channel_fraction *
      (mem.height_um + compute.height_um + periph.height_um);
  double y = 0.0;
  periph.x_um = 0.0;
  periph.y_um = y;
  y += periph.height_um + channel;
  compute.x_um = 0.0;
  compute.y_um = y;
  y += compute.height_um + channel;
  mem.x_um = 0.0;
  mem.y_um = y;
  y += mem.height_um;

  layout.width_um = width;
  layout.height_um = y;
  layout.area_mm2 = width * y * 1e-6;
  layout.regions.reserve(3);
  layout.regions.push_back(std::move(periph));
  layout.regions.push_back(std::move(compute));
  layout.regions.push_back(std::move(mem));
  SEGA_ENSURES(layout.utilization() <= 1.0 + 1e-9);
  return layout;
}

WirelengthReport estimate_wirelength(const MacroLayout& layout,
                                     const Netlist& nl) {
  struct Point {
    double x = 0.0, y = 0.0;
    bool known = false;
  };
  std::vector<Point> cell_pos(nl.cells().size());
  for (const auto& region : layout.regions) {
    for (const auto& pc : region.placement.cells) {
      SEGA_ASSERT(pc.cell_index < cell_pos.size());
      cell_pos[pc.cell_index] = {region.x_um + pc.x + pc.width / 2,
                                 region.y_um + pc.y + pc.height / 2, true};
    }
  }
  if (const RegionLayout* mem = layout.region("memory")) {
    const Point centre{mem->x_um + mem->width_um / 2,
                       mem->y_um + mem->height_um / 2, true};
    for (std::size_t ci = 0; ci < nl.cells().size(); ++ci) {
      if (nl.cell_kind(ci) == CellKind::kSram && !cell_pos[ci].known) {
        cell_pos[ci] = centre;
      }
    }
  }

  struct Box {
    double lo_x = 1e300, hi_x = -1e300, lo_y = 1e300, hi_y = -1e300;
    int terminals = 0;
    bool sram_only = true;
    void add(const Point& p, bool sram) {
      lo_x = std::min(lo_x, p.x);
      hi_x = std::max(hi_x, p.x);
      lo_y = std::min(lo_y, p.y);
      hi_y = std::max(hi_y, p.y);
      ++terminals;
      if (!sram) sram_only = false;
    }
  };
  std::vector<Box> boxes(nl.net_count());
  const CellList cells = nl.cells();
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    if (!cell_pos[ci].known) continue;
    const RtlCell cell = cells[ci];
    const bool sram = cell.kind == CellKind::kSram;
    for (const NetId n : cell.inputs) boxes[n].add(cell_pos[ci], sram);
    for (const NetId n : cell.outputs) boxes[n].add(cell_pos[ci], sram);
  }

  WirelengthReport report;
  for (const auto& box : boxes) {
    if (box.terminals < 2) continue;
    const double hpwl = (box.hi_x - box.lo_x) + (box.hi_y - box.lo_y);
    if (hpwl == 0.0 && box.sram_only) continue;
    report.total_um += hpwl;
    report.max_net_um = std::max(report.max_net_um, hpwl);
    ++report.nets;
  }
  if (report.nets > 0) {
    report.mean_net_um = report.total_um / static_cast<double>(report.nets);
  }
  const double area = layout.width_um * layout.height_um;
  if (area > 0.0) report.demand_um_per_um2 = report.total_um / area;
  return report;
}

long long db(double um) { return static_cast<long long>(um * 1000.0 + 0.5); }

const char* def_cell_name(CellKind kind) {
  switch (kind) {
    case CellKind::kNor: return "SEGA_NOR";
    case CellKind::kOr: return "SEGA_OR";
    case CellKind::kInv: return "SEGA_INV";
    case CellKind::kMux2: return "SEGA_MUX2";
    case CellKind::kHa: return "SEGA_HA";
    case CellKind::kFa: return "SEGA_FA";
    case CellKind::kDff: return "SEGA_DFF";
    case CellKind::kSram: return "SEGA_SRAM_BIT";
  }
  return "";
}

std::string write_def(const MacroLayout& layout, const Netlist& nl) {
  std::string out;
  out += "VERSION 5.8 ;\n";
  out += "DIVIDERCHAR \"/\" ;\n";
  out += "BUSBITCHARS \"[]\" ;\n";
  out += strfmt("DESIGN %s ;\n", layout.name.c_str());
  out += "UNITS DISTANCE MICRONS 1000 ;\n";
  out += strfmt("DIEAREA ( 0 0 ) ( %lld %lld ) ;\n", db(layout.width_um),
                db(layout.height_um));
  out += strfmt("REGIONS %zu ;\n", layout.regions.size());
  for (const auto& r : layout.regions) {
    out += strfmt("- region_%s ( %lld %lld ) ( %lld %lld ) ;\n",
                  r.name.c_str(), db(r.x_um), db(r.y_um),
                  db(r.x_um + r.width_um), db(r.y_um + r.height_um));
  }
  out += "END REGIONS\n";
  std::size_t count = 1;
  for (const auto& r : layout.regions) count += r.placement.cells.size();
  out += strfmt("COMPONENTS %zu ;\n", count);
  const RegionLayout* mem = layout.region("memory");
  SEGA_ASSERT(mem != nullptr);
  out += strfmt("- sram_array SEGA_SRAM_ARRAY + FIXED ( %lld %lld ) N ;\n",
                db(mem->x_um), db(mem->y_um));
  for (const auto& r : layout.regions) {
    for (const auto& pc : r.placement.cells) {
      out += strfmt("- u%zu %s + FIXED ( %lld %lld ) N ;\n", pc.cell_index,
                    def_cell_name(nl.cell_kind(pc.cell_index)),
                    db(r.x_um + pc.x), db(r.y_um + pc.y));
    }
  }
  out += "END COMPONENTS\n";
  out += "END DESIGN\n";
  return out;
}

}  // namespace ref

// ------------------------------------------------------------ comparison

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// Appends "<what>: <reference> vs <production>" to @p diffs when the two
/// doubles differ in any bit.
void compare(const char* what, double want, double got,
             std::vector<std::string>* diffs) {
  if (bits(want) != bits(got)) {
    diffs->push_back(strfmt("%s: %.17g vs %.17g", what, want, got));
  }
}

/// Every difference between the reference layout and wirelength and the
/// production ones; empty when they agree bit for bit.
std::vector<std::string> differences(const ref::MacroLayout& want,
                                     const WirelengthReport& want_wl,
                                     const MacroLayout& got,
                                     const WirelengthReport& got_wl) {
  std::vector<std::string> diffs;
  compare("total_um", want_wl.total_um, got_wl.total_um, &diffs);
  compare("max_net_um", want_wl.max_net_um, got_wl.max_net_um, &diffs);
  compare("mean_net_um", want_wl.mean_net_um, got_wl.mean_net_um, &diffs);
  compare("demand_um_per_um2", want_wl.demand_um_per_um2,
          got_wl.demand_um_per_um2, &diffs);
  if (want_wl.nets != got_wl.nets) {
    diffs.push_back(strfmt("nets: %zu vs %zu", want_wl.nets, got_wl.nets));
  }
  if (want.name != got.name) diffs.push_back("layout name");
  compare("width_um", want.width_um, got.width_um, &diffs);
  compare("height_um", want.height_um, got.height_um, &diffs);
  compare("area_mm2", want.area_mm2, got.area_mm2, &diffs);
  if (want.regions.size() != got.regions.size()) {
    diffs.push_back("region count");
    return diffs;
  }
  for (std::size_t r = 0; r < want.regions.size(); ++r) {
    const ref::RegionLayout& a = want.regions[r];
    const RegionLayout& b = got.regions[r];
    const std::string at = "region " + a.name + " ";
    if (a.name != b.name) diffs.push_back(at + "name " + b.name);
    compare((at + "x_um").c_str(), a.x_um, b.x_um, &diffs);
    compare((at + "y_um").c_str(), a.y_um, b.y_um, &diffs);
    compare((at + "width_um").c_str(), a.width_um, b.width_um, &diffs);
    compare((at + "height_um").c_str(), a.height_um, b.height_um, &diffs);
    compare((at + "cell_area_um2").c_str(), a.cell_area_um2, b.cell_area_um2,
            &diffs);
    if (a.cell_count != b.cell_count) diffs.push_back(at + "cell_count");
    const ref::RowPlacement& pa = a.placement;
    const RowPlacement& pb = b.placement;
    compare((at + "placement width").c_str(), pa.width_um, pb.width_um,
            &diffs);
    compare((at + "placement height").c_str(), pa.height_um, pb.height_um,
            &diffs);
    compare((at + "placement area").c_str(), pa.cell_area_um2,
            pb.cell_area_um2, &diffs);
    if (pa.rows != pb.rows) diffs.push_back(at + "rows");
    if (pa.cells.size() != pb.cells.size()) {
      diffs.push_back(at + "placed cell count");
      continue;
    }
    for (std::size_t i = 0; i < pa.cells.size(); ++i) {
      const ref::PlacedCell& ca = pa.cells[i];
      const PlacedCell& cb = pb.cells[i];
      if (ca.cell_index != cb.cell_index || bits(ca.x) != bits(cb.x) ||
          bits(ca.y) != bits(pb.y_of(cb)) ||
          bits(ca.width) != bits(cb.width) ||
          bits(ca.height) != bits(pb.row_height_um)) {
        diffs.push_back(strfmt("%splaced cell %zu (netlist cell %zu)",
                               at.c_str(), i, ca.cell_index));
        break;
      }
    }
  }
  return diffs;
}

/// Lays @p dp out both ways and expects bit-identical results; with
/// @p def, the DEF text too.
void expect_same_layout(const Technology& tech, const DesignPoint& dp,
                        bool def) {
  SCOPED_TRACE(dp.to_string() + (dp.signed_weights ? " signed" : "") +
               (dp.pipelined_tree ? " pipelined" : ""));
  const DcimMacro macro = build_dcim_macro(dp);
  const Netlist& nl = macro.netlist;
  const ref::MacroLayout want = ref::floorplan_macro(tech, macro);
  const WirelengthReport want_wl = ref::estimate_wirelength(want, nl);
  const MacroLayout got = floorplan_macro(tech, macro);
  const WirelengthReport got_wl = estimate_wirelength(got, nl);
  const std::vector<std::string> diffs =
      differences(want, want_wl, got, got_wl);
  EXPECT_TRUE(diffs.empty()) << diffs.size() << " difference(s), first: "
                             << (diffs.empty() ? "" : diffs.front());
  if (def) {
    EXPECT_TRUE(ref::write_def(want, nl) == write_def(got, nl))
        << "DEF text differs";
  }
}

DesignPoint point(const char* precision, std::int64_t n, std::int64_t h,
                  std::int64_t l, std::int64_t k) {
  DesignPoint dp;
  dp.precision = *precision_from_name(precision);
  dp.arch = arch_for(dp.precision);
  dp.n = n;
  dp.h = h;
  dp.l = l;
  dp.k = k;
  return dp;
}

class LayoutReferenceTest : public ::testing::Test {
 protected:
  Technology tech = Technology::tsmc28();
};

TEST_F(LayoutReferenceTest, EveryPointOfTheLayoutCellSpaceIsBitIdentical) {
  // The layout_cell benchmark's space: all 168 valid points of Wstore 256
  // INT8.  DEF text is compared on every eighth point (it costs more than
  // the layout itself).
  const auto all = DesignSpace(256, *precision_from_name("INT8")).enumerate_all();
  ASSERT_EQ(all.size(), 168u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    expect_same_layout(tech, all[i], i % 8 == 0);
  }
}

TEST_F(LayoutReferenceTest, TheDefaultValidateKneesAreBitIdentical) {
  // The knees `validate` picks on its default grid (Wstore 4096, seed 1).
  expect_same_layout(tech, point("INT8", 1024, 32, 1, 8), false);
  expect_same_layout(tech, point("FP16", 512, 8, 11, 11), false);
  expect_same_layout(tech, point("FP32", 2048, 16, 3, 24), false);
}

TEST_F(LayoutReferenceTest, SeededPointsAndVariantsAreBitIdentical) {
  // Two seeded points per (precision, Wstore), each also with a pipelined
  // adder tree, and the MUL-CIM ones with signed weights.
  Rng rng(2024);
  for (const char* name : {"INT4", "FP8", "BF16"}) {
    for (const std::int64_t wstore : {1024, 2048, 4096}) {
      const auto all =
          DesignSpace(wstore, *precision_from_name(name)).enumerate_all();
      ASSERT_FALSE(all.empty());
      for (int draw = 0; draw < 2; ++draw) {
        DesignPoint dp = all[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(all.size()) - 1))];
        const bool small = dp.n * dp.h * dp.l <= 16384;
        expect_same_layout(tech, dp, small);
        dp.pipelined_tree = true;
        expect_same_layout(tech, dp, false);
        if (dp.arch == ArchKind::kMulCim) {
          dp.pipelined_tree = false;
          dp.signed_weights = true;
          expect_same_layout(tech, dp, small);
        }
      }
    }
  }
}

}  // namespace
}  // namespace sega
