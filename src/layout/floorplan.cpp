#include "layout/floorplan.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/assert.h"
#include "util/math.h"

namespace sega {

const RegionLayout* MacroLayout::region(const std::string& rname) const {
  for (const auto& r : regions) {
    if (r.name == rname) return &r;
  }
  return nullptr;
}

double MacroLayout::utilization() const {
  double cell_area = 0.0;
  for (const auto& r : regions) cell_area += r.cell_area_um2;
  const double box = width_um * height_um;
  return box > 0.0 ? cell_area / box : 0.0;
}

namespace {

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

  // Logical grid: N*L bit columns x H word rows.  Fold columns into extra
  // rows until the tile is no more than ~2x wider than tall (real SRAM
  // compilers fold the same way).
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
  region.placement = place_rows(widths, cells, opt);
  region.width_um = target_width > 0.0
                        ? std::max(target_width, region.placement.width_um)
                        : region.placement.width_um;
  region.height_um = region.placement.height_um;
  region.cell_area_um2 = region.placement.cell_area_um2;
  return region;
}

}  // namespace

MacroLayout floorplan_macro(const Technology& tech, const DcimMacro& macro,
                            const FloorplanOptions& options) {
  MacroLayout layout;
  layout.name = macro.netlist.name();

  // --- memory tile sets the macro width ---
  RegionLayout mem = tile_memory(tech, macro, options);

  // --- partition the remaining cells (each group classified once) ---
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

  // Common region width: wide enough for the memory tile, and wide enough
  // that the stacked macro approaches the target aspect ratio.
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
  const double aspect_width =
      std::sqrt(est_total * options.target_aspect);
  const double region_width = std::max(mem.width_um, aspect_width);

  RegionLayout compute = place_region("compute", tech, nl, compute_cells,
                                      region_width, options.placer);
  RegionLayout periph = place_region("peripherals", tech, nl, periph_cells,
                                     region_width, options.placer);

  // --- vertical stack: peripherals / compute / memory, common width ---
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
  // Moved in place: a braced list would copy every region and its placed
  // cells out of the initializer_list.
  layout.regions.reserve(3);
  layout.regions.push_back(std::move(periph));
  layout.regions.push_back(std::move(compute));
  layout.regions.push_back(std::move(mem));
  SEGA_ENSURES(layout.utilization() <= 1.0 + 1e-9);
  return layout;
}

}  // namespace sega
