// Template-based DCIM macro generator — the netlist-generation half of the
// paper's §III-C (layout generation lives in sega::layout).
//
// Produces a flat structural netlist of the complete macro for a validated
// DesignPoint, for either architecture template:
//
//   MUL-CIM: input buffer -> weight-select + NOR multiply -> adder trees ->
//            shift accumulators -> result fusion
//   FP-CIM:  FP pre-alignment in front, INT-to-FP converters behind
//
// Port map (all buses LSB-first; one implicit clock):
//   inb{r}    [Bx]            inverted input operand of row r (INT), or
//   exp{r}    [BE], mant{r} [BM]   FP exponent/mantissa of row r
//   slice     [log2(cycles)]  which k-bit slice streams this cycle (MSB-first:
//                             slice 0 = most significant)
//   wsel      [log2(L)]       which of the L weights each compute unit uses
//   out{g}    [Br]            fused integer result of column group g, or
//   out_mant{g}/out_exp{g}    FP-converted result of group g (FP-CIM)
//   max_exp   [BE]            pre-alignment max exponent (FP-CIM)
//
// Weight storage convention: weight index wi = (g*H + r)*L + l is held in
// column group g, row r, slot l; bit j of its (inverted) value sits in
// column g*Bw + j.  sram_index() maps (column, row, slot) to the programming
// index used by GateSim::set_sram.
#pragma once

#include "arch/design_point.h"
#include "rtl/netlist.h"

namespace sega {

struct DcimMacro {
  Netlist netlist;
  DesignPoint dp;

  int cycles = 0;       ///< ceil(Bx/k) streaming cycles per operand
  int slice_bits = 0;   ///< width of the "slice" port (>= 1)
  int wsel_bits = 0;    ///< width of the "wsel" port (>= 1)
  int groups = 0;       ///< number of fusion units (ceil(N/Bw))
  int out_width = 0;    ///< width of each out{g} bus (before FP conversion)
  int tree_latency = 0; ///< adder-tree pipeline depth (0 unless pipelined;
                        ///< pipelined macros add a 1-bit "valid" input)

  /// Cell indices (into netlist.cells()) of all accumulator DFFs, for
  /// clearing between operands.
  std::vector<std::size_t> accumulator_dffs;

  /// Index into netlist.sram_cells() of the bit cell at (column, row, slot).
  std::size_t sram_index(std::int64_t column, std::int64_t row,
                         std::int64_t slot) const;

  explicit DcimMacro(std::string name) : netlist(std::move(name)) {}
};

/// Generate the macro netlist for a structurally valid design point.  Its
/// cell arrays are sized once, to dcim_macro_cell_count(dp).
DcimMacro build_dcim_macro(const DesignPoint& dp);

/// The number of cells build_dcim_macro(dp) elaborates, counted from the
/// builders' structure alone (a postcondition of build_dcim_macro keeps the
/// two equal).  Unlike the cost model's gate census, it counts the padded
/// shifter and selector candidates and the FP glue the builders emit.
std::size_t dcim_macro_cell_count(const DesignPoint& dp);

}  // namespace sega
