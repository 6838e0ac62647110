#include "layout/wirelength.h"

#include <algorithm>

#include "util/assert.h"

namespace sega {

WirelengthReport estimate_wirelength(const MacroLayout& layout,
                                     const Netlist& nl) {
  // Terminal position per cell: placed cells at their centre; SRAM cells at
  // the memory-tile centre.
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
      // The tile-centre approximation is a fallback for bit cells inside the
      // tiled array, which the row placer never touches; an SRAM cell the
      // placer did position keeps its placed coordinate.
      if (nl.cell_kind(ci) == CellKind::kSram && !cell_pos[ci].known) {
        cell_pos[ci] = centre;
      }
    }
  }

  // Net bounding boxes over all cell terminals.
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
    // Degenerate-net rule: a net whose terminals are all tile-centre SRAM
    // approximations with zero span carries no routed wire (it is internal
    // to the memory array) — counting it would deflate mean_net_um and
    // skew demand_um_per_um2, so it is excluded from every statistic.
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

}  // namespace sega
