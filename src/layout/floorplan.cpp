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

/// Pack a region whose placement already holds its tiles (netlist index and
/// width each, in netlist order) at @p target_width.
void place_region(double target_width, const PlacerOptions& base,
                  RegionLayout* region) {
  RowPlacement& placement = region->placement;
  region->cell_count = static_cast<std::int64_t>(placement.cells.size());
  if (placement.cells.empty()) return;
  PlacerOptions opt = base;
  opt.target_width_um = target_width;
  pack_rows(opt, &placement);
  region->width_um = target_width > 0.0
                         ? std::max(target_width, placement.width_um)
                         : placement.width_um;
  region->height_um = placement.height_um;
  region->cell_area_um2 = placement.cell_area_um2;
}

}  // namespace

MacroLayout floorplan_macro(const Technology& tech, const DcimMacro& macro,
                            const FloorplanOptions& options) {
  MacroLayout layout;
  layout.name = macro.netlist.name();

  // --- memory tile sets the macro width ---
  RegionLayout mem = tile_memory(tech, macro, options);

  // --- partition the remaining cells, classifying each cell once ---
  // Each region's placement is allocated at its exact size (from the group
  // census) and receives its tiles in netlist order, as the row placer
  // packs them.  The area fold visits compute cells, then peripheral cells,
  // each in netlist order.
  const Netlist& nl = macro.netlist;
  const double row_height = options.placer.row_height_um;
  std::array<double, kCellKindCount> width_of{};
  std::array<double, kCellKindCount> area_of{};
  for (int k = 0; k < kCellKindCount; ++k) {
    const auto kind = static_cast<CellKind>(k);
    width_of[static_cast<std::size_t>(k)] =
        cell_tile_width(tech, kind, row_height);
    area_of[static_cast<std::size_t>(k)] = tech.area_um2(tech.cell(kind).area);
  }
  const std::vector<GateCount> by_group = nl.census_by_group();
  std::vector<std::uint8_t> compute_group(by_group.size());
  std::size_t compute_count = 0;
  std::size_t periph_count = 0;
  for (std::size_t g = 0; g < by_group.size(); ++g) {
    compute_group[g] = is_compute_group(nl.group_names()[g]) ? 1 : 0;
    const auto placed = static_cast<std::size_t>(
        by_group[g].total() - by_group[g][CellKind::kSram]);
    (compute_group[g] != 0 ? compute_count : periph_count) += placed;
  }
  RegionLayout compute;
  compute.name = "compute";
  RegionLayout periph;
  periph.name = "peripherals";
  std::vector<PlacedCell>& compute_cells = compute.placement.cells;
  std::vector<PlacedCell>& periph_cells = periph.placement.cells;
  compute_cells.resize(compute_count);
  periph_cells.resize(periph_count);
  PlacedCell* next_compute = compute_cells.data();
  PlacedCell* next_periph = periph_cells.data();
  double other_area = 0.0;
  const std::size_t cell_count = nl.cells().size();
  for (std::size_t ci = 0; ci < cell_count; ++ci) {
    const auto kind = static_cast<std::size_t>(nl.cell_kind(ci));
    if (kind == static_cast<std::size_t>(CellKind::kSram)) continue;
    PlacedCell* tile = nullptr;
    if (compute_group[static_cast<std::size_t>(nl.cell_group(ci))] != 0) {
      tile = next_compute++;
      other_area += area_of[kind];
    } else {
      tile = next_periph++;
    }
    tile->cell_index = static_cast<std::uint32_t>(ci);
    tile->width = width_of[kind];
  }
  SEGA_ASSERT(next_compute == compute_cells.data() + compute_count &&
              next_periph == periph_cells.data() + periph_count);
  for (const PlacedCell& pc : periph_cells) {
    other_area += area_of[static_cast<std::size_t>(nl.cell_kind(pc.cell_index))];
  }

  // Common region width: wide enough for the memory tile, and wide enough
  // that the stacked macro approaches the target aspect ratio.
  const double est_total =
      mem.width_um * mem.height_um +
      other_area / options.placer.target_utilization;
  const double aspect_width =
      std::sqrt(est_total * options.target_aspect);
  const double region_width = std::max(mem.width_um, aspect_width);

  place_region(region_width, options.placer, &compute);
  place_region(region_width, options.placer, &periph);

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
