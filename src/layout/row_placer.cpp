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

}  // namespace sega
