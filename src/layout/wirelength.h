// Half-perimeter wirelength (HPWL) estimation over a floorplanned macro —
// the standard pre-route congestion/quality metric a P&R tool (the paper's
// Innovus) would report after placement.
//
// Each net's length is estimated as the half perimeter of the bounding box
// of its terminals (driver + sinks), using the placed cell positions; SRAM
// bit cells sit inside the memory tile and are approximated at the tile
// centre (their wiring is internal to the array).
//
// One walk over the placements, with no per-cell copy: each placed cell's
// centre is computed once and folded into the boxes of its pins, then each
// SRAM cell no region placed is folded in at the tile centre.  Boxes are
// min/max folds over finite, positive coordinates, so the visiting order
// changes no bit; totals are summed in net order.  A cell may be placed at
// most once.
#pragma once

#include "layout/floorplan.h"

namespace sega {

struct WirelengthReport {
  double total_um = 0.0;      ///< sum of net HPWLs
  double max_net_um = 0.0;    ///< longest single net
  double mean_net_um = 0.0;
  /// Nets with >= 2 placed terminals, excluding zero-span SRAM-only nets
  /// (all terminals collapsed to the shared memory-tile centre — such nets
  /// are internal to the array and carry no routed wire).
  std::size_t nets = 0;
  /// Total HPWL / core area — a first-order routing-demand indicator.
  double demand_um_per_um2 = 0.0;
};

WirelengthReport estimate_wirelength(const MacroLayout& layout,
                                     const Netlist& nl);

}  // namespace sega
