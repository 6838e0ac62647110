#include "layout/row_placer.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace sega {

double RowPlacement::utilization() const {
  const double box = width_um * height_um;
  return box > 0.0 ? cell_area_um2 / box : 0.0;
}

double cell_tile_width(const Technology& tech, CellKind kind,
                       double row_height_um) {
  SEGA_EXPECTS(row_height_um > 0.0);
  return tech.area_um2(tech.cell(kind).area) / row_height_um;
}

RowPlacement place_rows(const std::vector<double>& widths,
                        const std::vector<std::size_t>& cell_indices,
                        const PlacerOptions& options) {
  SEGA_EXPECTS(widths.size() == cell_indices.size());
  RowPlacement out;
  out.cells.reserve(widths.size());
  for (std::size_t i = 0; i < widths.size(); ++i) {
    SEGA_EXPECTS(cell_indices[i] <= UINT32_MAX);
    PlacedCell pc;
    pc.cell_index = static_cast<std::uint32_t>(cell_indices[i]);
    pc.width = widths[i];
    out.cells.push_back(pc);
  }
  pack_rows(options, &out);
  return out;
}

void pack_rows(const PlacerOptions& options, RowPlacement* placement) {
  SEGA_EXPECTS(placement != nullptr);
  SEGA_EXPECTS(options.row_height_um > 0.0);
  SEGA_EXPECTS(options.target_utilization > 0.0 &&
               options.target_utilization <= 1.0);

  RowPlacement& out = *placement;
  out.row_height_um = options.row_height_um;
  out.width_um = 0.0;
  out.height_um = 0.0;
  out.cell_area_um2 = 0.0;
  out.rows = 0;
  if (out.cells.empty()) return;

  double total_width = 0.0;
  double max_cell_width = 0.0;
  for (const PlacedCell& pc : out.cells) {
    SEGA_EXPECTS(pc.width > 0.0);
    total_width += pc.width + options.cell_spacing_um;
    max_cell_width = std::max(max_cell_width, pc.width);
  }

  // Choose the row width: requested, or a square-ish region at the target
  // utilization.
  double row_width = options.target_width_um;
  if (row_width <= 0.0) {
    const double area_needed =
        total_width * options.row_height_um / options.target_utilization;
    row_width = std::sqrt(area_needed);
  }
  row_width = std::max(row_width, max_cell_width);

  double x = 0.0;
  std::uint32_t row = 0;
  double used_width = 0.0;
  for (PlacedCell& pc : out.cells) {
    if (x + pc.width > row_width && x > 0.0) {
      used_width = std::max(used_width, x);
      x = 0.0;
      ++row;
    }
    pc.row = row;
    pc.x = x;
    out.cell_area_um2 += pc.width * options.row_height_um;
    x += pc.width + options.cell_spacing_um;
  }
  used_width = std::max(used_width, x);

  out.rows = static_cast<int>(row) + 1;
  out.width_um = used_width;
  out.height_um = out.rows * options.row_height_um;
  SEGA_ENSURES(out.utilization() <= 1.0 + 1e-9);
}

}  // namespace sega
