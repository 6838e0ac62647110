// Row-based standard-cell placer — the Innovus substitute's inner engine.
//
// Cells become fixed-height, variable-width tiles (width = area / row
// height) packed greedily left-to-right into rows of a chosen width.  This
// is a legal-by-construction abutment placement: no overlaps, all cells in
// rows, per-row fill tracked, which is exactly the information the paper
// extracts from its Innovus runs (macro dimensions and region areas).
//
// A placement stores one 24-byte PlacedCell per tile: the netlist index,
// the row, x and the width.  Every tile of a placement has the row height,
// and its y is row * row_height_um, so neither is stored.  pack_rows is the
// one row-packing loop; place_rows and the floorplanner both go through it,
// and the floorplanner writes its tiles straight into the placement it
// packs, so no cell is copied between stages.
#pragma once

#include <cstdint>
#include <vector>

#include "cost/gate_count.h"
#include "tech/technology.h"

namespace sega {

/// A placed tile (micrometres).
struct PlacedCell {
  std::uint32_t cell_index = 0;  ///< index into the source netlist
  std::uint32_t row = 0;         ///< y = row * RowPlacement::row_height_um
  double x = 0.0;
  double width = 0.0;
};
static_assert(sizeof(PlacedCell) == 24, "a placed cell is 24 bytes");

struct RowPlacement {
  std::vector<PlacedCell> cells;
  double row_height_um = 0.0;  ///< height of every tile and row
  double width_um = 0.0;    ///< bounding width actually used
  double height_um = 0.0;   ///< rows * row height
  double cell_area_um2 = 0.0;
  int rows = 0;

  /// Bottom edge of @p cell: its row times the row height.
  double y_of(const PlacedCell& cell) const {
    return cell.row * row_height_um;
  }

  /// cell area / bounding-box area.
  double utilization() const;
};

struct PlacerOptions {
  double row_height_um = 1.2;  ///< 28nm-class 9-track standard-cell row
  double target_width_um = 0.0;  ///< 0 = derive from target utilization
  double target_utilization = 0.8;
  double cell_spacing_um = 0.0;  ///< optional abutment gap
};

/// Place cells of the given widths (um) into rows.  @p cell_indices names
/// each tile (parallel to @p widths); every index must fit in 32 bits.
RowPlacement place_rows(const std::vector<double>& widths,
                        const std::vector<std::size_t>& cell_indices,
                        const PlacerOptions& options);

/// Pack the tiles of @p placement into rows, in order.  On entry each
/// tile's cell_index and width are set; on return its row and x are, and
/// so are the placement's row height, extent, cell area and row count.
void pack_rows(const PlacerOptions& options, RowPlacement* placement);

/// Width of a cell tile for @p kind under @p tech (area / row height).
double cell_tile_width(const Technology& tech, CellKind kind,
                       double row_height_um);

}  // namespace sega
