#include "rtl/macro_builder.h"

#include <algorithm>

#include "cost/components.h"
#include "rtl/builders.h"
#include "util/assert.h"
#include "util/math.h"
#include "util/strings.h"

namespace sega {

std::size_t DcimMacro::sram_index(std::int64_t column, std::int64_t row,
                                  std::int64_t slot) const {
  SEGA_EXPECTS(column >= 0 && column < dp.n);
  SEGA_EXPECTS(row >= 0 && row < dp.h);
  SEGA_EXPECTS(slot >= 0 && slot < dp.l);
  // Insertion order in build_dcim_macro: column-major, then row, then slot.
  return static_cast<std::size_t>((column * dp.h + row) * dp.l + slot);
}

namespace {

// Cells each builder of builders.h emits, from its arguments' widths alone.
using Count = std::int64_t;

/// build_left/right_shifter: w selectors over 2^sb candidates each.
Count shifter_cells(Count w, int sb) { return w * ((Count{1} << sb) - 1); }

/// build_adder_tree(_pipelined) over h inputs of width k: h/2 adders of
/// width k, h/4 of width k+1, ...; the pipelined tree registers each
/// level's sums but the last.
Count adder_tree_cells(Count h, Count k, bool pipelined) {
  Count cells = 0;
  for (Count adders = h / 2, w = k; adders >= 1; adders /= 2, ++w) {
    cells += adders * w;
    if (pipelined && adders > 1) cells += adders * (w + 1);
  }
  return cells;
}

/// build_shift_accumulator(_gated) of width w: w DFF, a w-bit shifter and a
/// w-bit adder, plus w MUX2 when gated.
Count shift_accumulator_cells(Count w, bool gated) {
  return w + shifter_cells(w, ceil_log2(static_cast<std::uint64_t>(w))) + w +
         (gated ? w : 0);
}

/// build_result_fusion's recursion over m columns of width w: adds the
/// cells of its adders to @p cells and returns the fused width.
Count fusion_width(Count m, Count w, Count* cells) {
  if (m == 1) return w;
  const Count lo = (m + 1) / 2;
  const Count lo_width = fusion_width(lo, w, cells);
  const Count hi_width = fusion_width(m - lo, w, cells);
  const Count out_width = std::max(lo_width, lo + hi_width) + 1;
  *cells += out_width;
  return out_width;
}

/// build_int_to_fp on a br-bit value: prefix ORs, the leading-one one-hot,
/// the shift-amount encoder's OR trees, the normalizing shifter, the
/// exponent subtractor and the zero gating of bm mantissa and be exponent
/// bits.
Count int_to_fp_cells(Count br, Count bm, Count be) {
  const int shift_bits =
      std::max(ceil_log2(static_cast<std::uint64_t>(br)), 1);
  Count cells = 3 * (br - 1);
  for (int b = 0; b < shift_bits; ++b) {
    Count terms = 0;
    for (Count v = 0; v < br; ++v) terms += (v >> b) & 1;
    if (terms > 0) cells += terms - 1;
  }
  return cells + shifter_cells(br, shift_bits) + 3 * be + 1 + 2 * bm +
         2 * be;
}

}  // namespace

std::size_t dcim_macro_cell_count(const DesignPoint& dp) {
  SEGA_EXPECTS(dp.n >= 1 && dp.h >= 2 && dp.l >= 1 && dp.k >= 1);
  const Count n = dp.n, h = dp.h, l = dp.l, k = dp.k;
  const Count bx = dp.precision.input_bits();
  const Count bw = dp.precision.weight_bits();
  const Count cycles = static_cast<Count>(
      ceil_div(static_cast<std::uint64_t>(bx), static_cast<std::uint64_t>(k)));
  const Count w_accu =
      accumulator_width(static_cast<int>(bx), static_cast<int>(h));
  const bool fp = dp.arch == ArchKind::kFpCim;
  const Count be = fp ? dp.precision.exp_bits : 0;

  // Input buffer: per row Bx DFF and k cycles:1 slice selectors.
  Count cells = h * (bx + k * (cycles - 1));
  // Columns: per row L SRAM bits, an L:1 weight selector and k NOR; then
  // the adder tree and the shift accumulator.
  cells += n * (h * (l + (l - 1) + k) +
                adder_tree_cells(h, k, dp.pipelined_tree) +
                shift_accumulator_cells(w_accu, dp.pipelined_tree));
  if (fp) {
    // Pre-alignment: the max tree's h-1 nodes (comparator + be MUX2), per
    // row a be-bit offset subtractor, a Bx-bit right shifter and, when the
    // offset is wider than the shift amount, the flush OR tree and gating;
    // then the buffer's per-bit inverters.
    const int sb = ceil_log2(static_cast<std::uint64_t>(bx));
    const Count flush = be > sb ? (be - sb - 1) + 2 * bx : 0;
    cells += (h - 1) * 3 * be +
             h * (3 * be + shifter_cells(bx, sb) + flush) + h * bx;
  }
  // Result fusion, one unit per Bw columns (+ INT-to-FP on FP-CIM).
  const auto group_cells = [&](Count m) {
    Count group = 0;
    Count width = 0;
    if (dp.signed_weights && !fp && m >= 2) {
      const Count pos = fusion_width(m - 1, w_accu, &group);
      width = std::max(pos, m - 1 + w_accu) + 1;
      group += 2 * width;
    } else {
      width = fusion_width(m, w_accu, &group);
    }
    return fp ? group + int_to_fp_cells(width, bx, be) : group;
  };
  cells += (n / bw) * group_cells(bw);
  if (n % bw != 0) cells += group_cells(n % bw);
  return static_cast<std::size_t>(cells);
}

DcimMacro build_dcim_macro(const DesignPoint& dp) {
  SEGA_EXPECTS(dp.n >= 1 && dp.h >= 2 && dp.l >= 1 && dp.k >= 1);
  SEGA_EXPECTS(dp.arch == arch_for(dp.precision));
  const int bx = dp.precision.input_bits();
  const int bw = dp.precision.weight_bits();
  SEGA_EXPECTS(dp.k <= bx);

  DcimMacro macro(to_verilog_identifier(
      strfmt("dcim_%s_n%lld_h%lld_l%lld_k%lld",
             dp.precision.name.c_str(), static_cast<long long>(dp.n),
             static_cast<long long>(dp.h), static_cast<long long>(dp.l),
             static_cast<long long>(dp.k))));
  macro.dp = dp;
  Netlist& nl = macro.netlist;
  const std::size_t cell_count = dcim_macro_cell_count(dp);
  nl.reserve_cells(cell_count, static_cast<std::size_t>(dp.n * dp.h * dp.l));

  const int k = static_cast<int>(dp.k);
  const int cycles = static_cast<int>(
      ceil_div(static_cast<std::uint64_t>(bx), static_cast<std::uint64_t>(k)));
  macro.cycles = cycles;
  macro.slice_bits = std::max(1, ceil_log2(static_cast<std::uint64_t>(cycles)));
  macro.wsel_bits = std::max(1, ceil_log2(static_cast<std::uint64_t>(dp.l)));
  const Bus slice = nl.add_input("slice", macro.slice_bits);
  const Bus wsel = nl.add_input("wsel", macro.wsel_bits);
  NetId valid = kNoNet;
  if (dp.pipelined_tree) valid = nl.add_input("valid", 1)[0];

  // ---- per-row inverted input operands (INB) ----
  // INT: the inverted operand arrives directly.  FP: the pre-alignment
  // front-end produces aligned mantissas, inverted into the buffer.
  std::vector<Bus> row_inb;  // [h][bx], inverted polarity
  row_inb.reserve(static_cast<std::size_t>(dp.h));
  if (dp.arch == ArchKind::kMulCim) {
    for (std::int64_t r = 0; r < dp.h; ++r) {
      row_inb.push_back(nl.add_input(strfmt("inb%lld", static_cast<long long>(r)),
                                     bx));
    }
  } else {
    const int be = dp.precision.exp_bits;
    std::vector<Bus> exps, mants;
    for (std::int64_t r = 0; r < dp.h; ++r) {
      exps.push_back(nl.add_input(strfmt("exp%lld", static_cast<long long>(r)),
                                  be));
      mants.push_back(nl.add_input(strfmt("mant%lld", static_cast<long long>(r)),
                                   bx));
    }
    nl.set_active_group("pre_alignment");
    Bus max_exp;
    const auto aligned = build_pre_alignment(nl, exps, mants, &max_exp);
    nl.add_output("max_exp", max_exp);
    for (const Bus& a : aligned) {
      Bus inb(a.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        inb[i] = nl.new_net();
        nl.add_cell(CellKind::kInv, {a[i]}, {inb[i]});
      }
      row_inb.push_back(std::move(inb));
    }
  }

  // ---- input buffer: register the inverted operands, then slice-select ----
  // MSB-first streaming over the operand zero-extended to cycles*k bits:
  // slice c carries extended bits [ck', (c+1)k') counted from the top (k' =
  // k); pad positions (>= Bx) read inverted-zero = const1.  Padding at the
  // MSB keeps the shift-accumulate reconstruction exact for any k.
  nl.set_active_group("input_buffer");
  std::vector<Bus> row_slice(static_cast<std::size_t>(dp.h));
  Bus candidates(static_cast<std::size_t>(cycles));
  for (std::int64_t r = 0; r < dp.h; ++r) {
    Bus reg(static_cast<std::size_t>(bx));
    for (int b = 0; b < bx; ++b) {
      reg[static_cast<std::size_t>(b)] = nl.new_net();
      nl.add_cell(CellKind::kDff,
                  {row_inb[static_cast<std::size_t>(r)][static_cast<std::size_t>(b)]},
                  {reg[static_cast<std::size_t>(b)]});
    }
    Bus sl(static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) {
      for (int c = 0; c < cycles; ++c) {
        const int src = cycles * k - (c + 1) * k + j;
        candidates[static_cast<std::size_t>(c)] =
            (src < bx) ? reg[static_cast<std::size_t>(src)] : nl.const1();
      }
      sl[static_cast<std::size_t>(j)] = build_selector(nl, candidates, slice);
    }
    row_slice[static_cast<std::size_t>(r)] = std::move(sl);
  }

  // ---- DCIM array: SRAM, weight selection, NOR multiply, adder trees ----
  const int w_accu = accumulator_width(bx, static_cast<int>(dp.h));
  std::vector<Bus> column_results;  // [n][w_accu]
  column_results.reserve(static_cast<std::size_t>(dp.n));
  macro.accumulator_dffs.reserve(static_cast<std::size_t>(dp.n * w_accu));
  for (std::int64_t col = 0; col < dp.n; ++col) {
    std::vector<Bus> products;
    products.reserve(static_cast<std::size_t>(dp.h));
    for (std::int64_t r = 0; r < dp.h; ++r) {
      // L inverted weight bits share this compute unit.
      nl.set_active_group("sram");
      Bus wb_slots(static_cast<std::size_t>(dp.l));
      for (std::int64_t l = 0; l < dp.l; ++l) {
        const NetId q = nl.new_net();
        nl.add_cell(CellKind::kSram, {}, {q});
        wb_slots[static_cast<std::size_t>(l)] = q;
      }
      nl.set_active_group("compute");
      const NetId wb = build_selector(nl, wb_slots, wsel);
      products.push_back(
          build_mul(nl, row_slice[static_cast<std::size_t>(r)], wb));
    }
    nl.set_active_group("adder_tree");
    const Bus tree_out =
        dp.pipelined_tree
            ? build_adder_tree_pipelined(nl, products, &macro.tree_latency)
            : build_adder_tree(nl, products);

    // ---- shift accumulator ----
    nl.set_active_group("accumulator");
    const std::size_t first_cell = nl.cells().size();
    Bus acc =
        dp.pipelined_tree
            ? build_shift_accumulator_gated(nl, tree_out, w_accu, k, valid)
            : build_shift_accumulator(nl, tree_out, w_accu, k);
    for (std::size_t ci = first_cell; ci < nl.cells().size(); ++ci) {
      if (nl.cell_kind(ci) == CellKind::kDff) {
        macro.accumulator_dffs.push_back(ci);
      }
    }
    column_results.push_back(std::move(acc));
  }

  // ---- result fusion (one unit per Bw columns) + optional FP conversion ----
  const std::int64_t groups = static_cast<std::int64_t>(ceil_div(
      static_cast<std::uint64_t>(dp.n), static_cast<std::uint64_t>(bw)));
  macro.groups = static_cast<int>(groups);
  for (std::int64_t g = 0; g < groups; ++g) {
    std::vector<Bus> cols;
    for (std::int64_t j = 0; j < bw && g * bw + j < dp.n; ++j) {
      cols.push_back(
          std::move(column_results[static_cast<std::size_t>(g * bw + j)]));
    }
    nl.set_active_group("fusion");
    const bool signed_fusion =
        dp.signed_weights && dp.arch == ArchKind::kMulCim && cols.size() >= 2;
    const Bus fused = signed_fusion ? build_result_fusion_signed(nl, cols)
                                    : build_result_fusion(nl, cols);
    macro.out_width = static_cast<int>(fused.size());
    if (dp.arch == ArchKind::kMulCim) {
      nl.add_output(strfmt("out%lld", static_cast<long long>(g)), fused);
    } else {
      const int be = dp.precision.exp_bits;
      const int bias = static_cast<int>(pow2(be - 1)) - 1;
      nl.set_active_group("int_to_fp");
      const FpResult fp = build_int_to_fp(nl, fused, bx, be, bias);
      nl.add_output(strfmt("out_mant%lld", static_cast<long long>(g)),
                    fp.mantissa);
      nl.add_output(strfmt("out_exp%lld", static_cast<long long>(g)),
                    fp.exponent);
    }
  }

  SEGA_ENSURES(nl.cells().size() == cell_count);
  SEGA_ENSURES(!nl.validate().has_value());
  return macro;
}

}  // namespace sega
