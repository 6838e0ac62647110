#include "layout/wirelength.h"

#include <algorithm>
#include <vector>

#include "util/assert.h"

namespace sega {

namespace {

/// Bounding box of one net's terminals.
struct NetBox {
  double lo_x = 1e300, hi_x = -1e300, lo_y = 1e300, hi_y = -1e300;
};

/// Per-net terminal word: bit 0 is set once a non-SRAM cell touches the
/// net; the bits above count terminals, saturating at two (only "fewer than
/// two" matters, and saturation keeps the word from ever wrapping).
constexpr std::uint32_t kNonSram = 1;
constexpr std::uint32_t kOneTerminal = 2;
constexpr std::uint32_t kTwoTerminals = 2 * kOneTerminal;

}  // namespace

WirelengthReport estimate_wirelength(const MacroLayout& layout,
                                     const Netlist& nl) {
  // Fold every terminal position straight into the boxes of its cell's
  // nets: placed cells at their centre, in each region's placement order;
  // then the SRAM cells no region placed, at the memory-tile centre.  The
  // boxes are min/max folds over finite, positive coordinates, so the order
  // in which cells are visited changes no bit of any box.
  const std::size_t cell_count = nl.cells().size();
  std::vector<NetBox> boxes(nl.net_count());
  std::vector<std::uint32_t> terminals(nl.net_count(), 0);
  std::vector<bool> placed(cell_count, false);
  const auto add = [&](std::size_t ci, double x, double y) {
    const std::uint32_t flag =
        nl.cell_kind(ci) == CellKind::kSram ? 0 : kNonSram;
    const NetId* pins = nl.cell_pins(ci);
    for (std::size_t slot = 0; slot < kCellPinSlots; ++slot) {
      const NetId n = pins[slot];
      if (n == kNoNet) continue;
      NetBox& box = boxes[n];
      box.lo_x = std::min(box.lo_x, x);
      box.hi_x = std::max(box.hi_x, x);
      box.lo_y = std::min(box.lo_y, y);
      box.hi_y = std::max(box.hi_y, y);
      std::uint32_t& word = terminals[n];
      word = (word < kTwoTerminals ? word + kOneTerminal : word) | flag;
    }
  };

  for (const auto& region : layout.regions) {
    const RowPlacement& placement = region.placement;
    const double half_height = placement.row_height_um / 2;
    for (const PlacedCell& pc : placement.cells) {
      SEGA_ASSERT(pc.cell_index < cell_count);
      // One placement per cell: a second one would leave it two positions.
      SEGA_EXPECTS(!placed[pc.cell_index]);
      placed[pc.cell_index] = true;
      add(pc.cell_index, region.x_um + pc.x + pc.width / 2,
          region.y_um + placement.y_of(pc) + half_height);
    }
  }
  if (const RegionLayout* mem = layout.region("memory")) {
    // The tile-centre approximation is a fallback for bit cells inside the
    // tiled array, which the row placer never touches; an SRAM cell the
    // placer did position keeps its placed coordinate.
    const double x = mem->x_um + mem->width_um / 2;
    const double y = mem->y_um + mem->height_um / 2;
    for (const std::size_t ci : nl.sram_cells()) {
      if (!placed[ci]) add(ci, x, y);
    }
  }

  WirelengthReport report;
  for (std::size_t n = 0; n < boxes.size(); ++n) {
    const std::uint32_t word = terminals[n];
    if (word < kTwoTerminals) continue;
    const NetBox& box = boxes[n];
    const double hpwl = (box.hi_x - box.lo_x) + (box.hi_y - box.lo_y);
    // Degenerate-net rule: a net whose terminals are all tile-centre SRAM
    // approximations with zero span carries no routed wire (it is internal
    // to the memory array) — counting it would deflate mean_net_um and
    // skew demand_um_per_um2, so it is excluded from every statistic.
    if (hpwl == 0.0 && (word & kNonSram) == 0) continue;
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
