#include "rtl/builders.h"

#include <algorithm>

#include "util/assert.h"
#include "util/math.h"

namespace sega {

namespace {

/// Constant bus for @p value.
Bus const_bus(Netlist& nl, std::uint64_t value, int width) {
  Bus bus(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    bus[static_cast<std::size_t>(i)] =
        ((value >> i) & 1u) ? nl.const1() : nl.const0();
  }
  return bus;
}

NetId inv(Netlist& nl, NetId a) {
  const NetId y = nl.new_net();
  nl.add_cell(CellKind::kInv, {a}, {y});
  return y;
}

NetId nor2(Netlist& nl, NetId a, NetId b) {
  const NetId y = nl.new_net();
  nl.add_cell(CellKind::kNor, {a, b}, {y});
  return y;
}

NetId or2(Netlist& nl, NetId a, NetId b) {
  const NetId y = nl.new_net();
  nl.add_cell(CellKind::kOr, {a, b}, {y});
  return y;
}

NetId mux2(Netlist& nl, NetId d0, NetId d1, NetId sel) {
  const NetId y = nl.new_net();
  nl.add_cell(CellKind::kMux2, {d0, d1, sel}, {y});
  return y;
}

/// OR-reduce a list of nets with a balanced tree of OR cells.
NetId or_reduce(Netlist& nl, std::vector<NetId> nets) {
  SEGA_EXPECTS(!nets.empty());
  while (nets.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < nets.size(); i += 2) {
      next.push_back(or2(nl, nets[i], nets[i + 1]));
    }
    if (nets.size() % 2) next.push_back(nets.back());
    nets = std::move(next);
  }
  return nets[0];
}

}  // namespace

Bus zext(Netlist& nl, const Bus& bus, int width) {
  SEGA_EXPECTS(width >= 0);
  Bus out = bus;
  if (static_cast<int>(out.size()) > width) {
    out.resize(static_cast<std::size_t>(width));
  }
  while (static_cast<int>(out.size()) < width) out.push_back(nl.const0());
  return out;
}

Bus build_mul(Netlist& nl, const Bus& inb, NetId wb) {
  Bus product(inb.size());
  for (std::size_t i = 0; i < inb.size(); ++i) {
    product[i] = nor2(nl, inb[i], wb);
  }
  return product;
}

Bus build_adder(Netlist& nl, const Bus& a, const Bus& b) {
  SEGA_EXPECTS(!a.empty() && a.size() == b.size());
  const std::size_t w = a.size();
  Bus sum(w + 1);
  // Bit 0: half adder.
  NetId carry = nl.new_net();
  sum[0] = nl.new_net();
  nl.add_cell(CellKind::kHa, {a[0], b[0]}, {sum[0], carry});
  // Bits 1..w-1: full adders.
  for (std::size_t i = 1; i < w; ++i) {
    const NetId next_carry = nl.new_net();
    sum[i] = nl.new_net();
    nl.add_cell(CellKind::kFa, {a[i], b[i], carry}, {sum[i], next_carry});
    carry = next_carry;
  }
  sum[w] = carry;
  return sum;
}

namespace {

NetId selector_rec(Netlist& nl, const Bus& data, const Bus& sel,
                   std::size_t lo, std::size_t n, int m) {
  if (n == 1) return data[lo];
  SEGA_ASSERT(m >= 1);
  const std::size_t half = static_cast<std::size_t>(1) << (m - 1);
  if (n <= half) {
    // The MSB of the select cannot address beyond this group; ignore it.
    return selector_rec(nl, data, sel, lo, n, m - 1);
  }
  const NetId low = selector_rec(nl, data, sel, lo, half, m - 1);
  const NetId high = selector_rec(nl, data, sel, lo + half, n - half, m - 1);
  return mux2(nl, low, high, sel[static_cast<std::size_t>(m - 1)]);
}

}  // namespace

NetId build_selector(Netlist& nl, const Bus& data, const Bus& sel) {
  SEGA_EXPECTS(!data.empty());
  const int need = ceil_log2(data.size());
  SEGA_EXPECTS(static_cast<int>(sel.size()) >= need);
  return selector_rec(nl, data, sel, 0, data.size(), need);
}

namespace {

/// Shared barrel-shifter skeleton: per output bit a padded 2^sb:1 selector
/// whose candidate s is the shifted-in source (const0 when out of range).
/// Padding to the full select range gives exact zero-fill semantics for any
/// shift amount representable in @p sh.
Bus build_shifter(Netlist& nl, const Bus& data, const Bus& sh, bool left) {
  SEGA_EXPECTS(!data.empty());
  const int w = static_cast<int>(data.size());
  const int sb = static_cast<int>(sh.size());
  SEGA_EXPECTS(sb >= ceil_log2(static_cast<std::uint64_t>(w)));
  const std::int64_t reach = static_cast<std::int64_t>(1) << sb;
  Bus out(data.size());
  Bus candidates(static_cast<std::size_t>(reach));
  for (int j = 0; j < w; ++j) {
    for (std::int64_t s = 0; s < reach; ++s) {
      const std::int64_t src = left ? j - s : j + s;
      candidates[static_cast<std::size_t>(s)] =
          (src >= 0 && src < w) ? data[static_cast<std::size_t>(src)]
                                : nl.const0();
    }
    out[static_cast<std::size_t>(j)] = build_selector(nl, candidates, sh);
  }
  return out;
}

}  // namespace

Bus build_right_shifter(Netlist& nl, const Bus& data, const Bus& sh) {
  return build_shifter(nl, data, sh, /*left=*/false);
}

Bus build_left_shifter(Netlist& nl, const Bus& data, const Bus& sh) {
  return build_shifter(nl, data, sh, /*left=*/true);
}

NetId build_greater(Netlist& nl, const Bus& a, const Bus& b) {
  SEGA_EXPECTS(a.size() == b.size());
  Bus nb(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) nb[i] = inv(nl, b[i]);
  const Bus sum = build_adder(nl, a, nb);
  return sum.back();  // carry_out(a + ~b) == 1  <=>  a > b
}

Bus build_sub_assume_ge(Netlist& nl, const Bus& a, const Bus& b) {
  SEGA_EXPECTS(a.size() == b.size());
  // a - b = ~(~a + b) when the (dropped) carry chain is accounted for:
  // ~a + b = (2^w - 1) - a + b = (2^w - 1) - (a - b).
  Bus na(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) na[i] = inv(nl, a[i]);
  Bus sum = build_adder(nl, na, b);
  Bus diff(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) diff[i] = inv(nl, sum[i]);
  return diff;
}

Bus build_subtractor(Netlist& nl, const Bus& a, const Bus& b) {
  SEGA_EXPECTS(!a.empty() && a.size() == b.size());
  const std::size_t w = a.size();
  // a + ~b + 1: full adders throughout with carry-in 1 at bit 0.
  Bus diff(w);
  NetId carry = nl.const1();
  for (std::size_t i = 0; i < w; ++i) {
    const NetId nb = inv(nl, b[i]);
    const NetId next_carry = nl.new_net();
    diff[i] = nl.new_net();
    nl.add_cell(CellKind::kFa, {a[i], nb, carry}, {diff[i], next_carry});
    carry = next_carry;
  }
  return diff;
}

Bus build_adder_tree(Netlist& nl, const std::vector<Bus>& inputs) {
  SEGA_EXPECTS(!inputs.empty());
  SEGA_EXPECTS(is_pow2(inputs.size()));
  for (const auto& in : inputs) SEGA_EXPECTS(in.size() == inputs[0].size());
  // Each level reads the previous one in place; the inputs are never copied.
  const std::vector<Bus>* level = &inputs;
  std::vector<Bus> sums;
  while (level->size() > 1) {
    std::vector<Bus> next;
    next.reserve(level->size() / 2);
    for (std::size_t i = 0; i < level->size(); i += 2) {
      next.push_back(build_adder(nl, (*level)[i], (*level)[i + 1]));
    }
    sums = std::move(next);
    level = &sums;
  }
  return (*level)[0];
}

Bus build_adder_tree_pipelined(Netlist& nl, const std::vector<Bus>& inputs,
                               int* latency_out) {
  SEGA_EXPECTS(inputs.size() >= 2);
  SEGA_EXPECTS(is_pow2(inputs.size()));
  for (const auto& in : inputs) SEGA_EXPECTS(in.size() == inputs[0].size());
  std::vector<Bus> level = inputs;
  int latency = 0;
  while (level.size() > 1) {
    std::vector<Bus> next;
    next.reserve(level.size() / 2);
    for (std::size_t i = 0; i < level.size(); i += 2) {
      next.push_back(build_adder(nl, level[i], level[i + 1]));
    }
    if (next.size() > 1) {
      // Register bank between levels.
      for (auto& bus : next) {
        Bus q(bus.size());
        for (std::size_t b = 0; b < bus.size(); ++b) {
          q[b] = nl.new_net();
          nl.add_cell(CellKind::kDff, {bus[b]}, {q[b]});
        }
        bus = std::move(q);
      }
      ++latency;
    }
    level = std::move(next);
  }
  if (latency_out) *latency_out = latency;
  return level[0];
}

Bus build_max_tree(Netlist& nl, const std::vector<Bus>& values) {
  SEGA_EXPECTS(!values.empty());
  SEGA_EXPECTS(is_pow2(values.size()));
  for (const auto& v : values) SEGA_EXPECTS(v.size() == values[0].size());
  std::vector<Bus> level = values;
  while (level.size() > 1) {
    std::vector<Bus> next;
    next.reserve(level.size() / 2);
    for (std::size_t i = 0; i < level.size(); i += 2) {
      const Bus& a = level[i];
      const Bus& b = level[i + 1];
      const NetId a_greater = build_greater(nl, a, b);
      Bus m(a.size());
      for (std::size_t j = 0; j < a.size(); ++j) {
        m[j] = mux2(nl, b[j], a[j], a_greater);
      }
      next.push_back(std::move(m));
    }
    level = std::move(next);
  }
  return level[0];
}

Bus build_shift_accumulator(Netlist& nl, const Bus& partial, int w, int k) {
  SEGA_EXPECTS(w >= static_cast<int>(partial.size()));
  SEGA_EXPECTS(k >= 1 && k < w);
  // Registered state, created up front so logic can reference it.
  Bus acc = nl.new_bus(w);
  const int sb = ceil_log2(static_cast<std::uint64_t>(w));
  const Bus shamt = const_bus(nl, static_cast<std::uint64_t>(k), sb);
  const Bus shifted = build_left_shifter(nl, acc, shamt);
  const Bus sum = build_adder(nl, shifted, zext(nl, partial, w));
  for (int i = 0; i < w; ++i) {
    nl.add_cell(CellKind::kDff, {sum[static_cast<std::size_t>(i)]},
                {acc[static_cast<std::size_t>(i)]});
  }
  return acc;
}

Bus build_shift_accumulator_gated(Netlist& nl, const Bus& partial, int w,
                                  int k, NetId valid) {
  SEGA_EXPECTS(w >= static_cast<int>(partial.size()));
  SEGA_EXPECTS(k >= 1 && k < w);
  Bus acc = nl.new_bus(w);
  const int sb = ceil_log2(static_cast<std::uint64_t>(w));
  const Bus shamt = const_bus(nl, static_cast<std::uint64_t>(k), sb);
  const Bus shifted = build_left_shifter(nl, acc, shamt);
  const Bus sum = build_adder(nl, shifted, zext(nl, partial, w));
  for (int i = 0; i < w; ++i) {
    const std::size_t si = static_cast<std::size_t>(i);
    const NetId gated = mux2(nl, acc[si], sum[si], valid);
    nl.add_cell(CellKind::kDff, {gated}, {acc[si]});
  }
  return acc;
}

namespace {

struct FusionNode {
  Bus bus;
};

/// Mirrors the recursion in result_fusion_cost: lower ceil(m/2) columns fuse
/// the low significance group; the upper group is wired left by lo_cols bit
/// positions; operands are zero-extended to the full output width so the
/// combining adder has the census the cost model counts.
FusionNode fuse_rec(Netlist& nl, const std::vector<Bus>& cols, std::size_t lo,
                    std::size_t m) {
  if (m == 1) return {cols[lo]};
  const std::size_t lo_cols = (m + 1) / 2;
  const std::size_t hi_cols = m - lo_cols;
  FusionNode l = fuse_rec(nl, cols, lo, lo_cols);
  FusionNode r = fuse_rec(nl, cols, lo + lo_cols, hi_cols);
  const int out_w = static_cast<int>(
      std::max(l.bus.size(), lo_cols + r.bus.size())) + 1;
  // Wire the upper group into its bit position (free), then add.
  Bus shifted_r(static_cast<std::size_t>(out_w), nl.const0());
  for (std::size_t i = 0; i < r.bus.size(); ++i) shifted_r[lo_cols + i] = r.bus[i];
  const Bus a = zext(nl, l.bus, out_w);
  Bus sum = build_adder(nl, a, shifted_r);
  sum.resize(static_cast<std::size_t>(out_w));  // drop the impossible carry
  return {std::move(sum)};
}

}  // namespace

Bus build_result_fusion(Netlist& nl, const std::vector<Bus>& columns) {
  SEGA_EXPECTS(!columns.empty());
  for (const auto& c : columns) SEGA_EXPECTS(c.size() == columns[0].size());
  return fuse_rec(nl, columns, 0, columns.size()).bus;
}

Bus build_result_fusion_signed(Netlist& nl, const std::vector<Bus>& columns) {
  SEGA_EXPECTS(columns.size() >= 2);
  for (const auto& c : columns) SEGA_EXPECTS(c.size() == columns[0].size());
  const std::size_t bw = columns.size();
  // Positive part: unsigned fusion of the low bw-1 columns.
  const std::vector<Bus> low(columns.begin(), columns.end() - 1);
  const Bus pos = fuse_rec(nl, low, 0, low.size()).bus;
  // Negative part: the MSB column wired to significance 2^(bw-1).
  const Bus& msb = columns.back();
  const int width =
      static_cast<int>(std::max(pos.size(), bw - 1 + msb.size())) + 1;
  Bus neg(static_cast<std::size_t>(width), nl.const0());
  for (std::size_t i = 0; i < msb.size(); ++i) neg[bw - 1 + i] = msb[i];
  return build_subtractor(nl, zext(nl, pos, width), neg);
}

std::vector<Bus> build_pre_alignment(Netlist& nl,
                                     const std::vector<Bus>& exponents,
                                     const std::vector<Bus>& mantissas,
                                     Bus* max_exp_out) {
  SEGA_EXPECTS(!exponents.empty());
  SEGA_EXPECTS(exponents.size() == mantissas.size());
  const int be = static_cast<int>(exponents[0].size());
  const int bm = static_cast<int>(mantissas[0].size());
  const Bus max_exp = build_max_tree(nl, exponents);
  if (max_exp_out) *max_exp_out = max_exp;

  const int sb = ceil_log2(static_cast<std::uint64_t>(bm));
  std::vector<Bus> aligned;
  aligned.reserve(mantissas.size());
  for (std::size_t i = 0; i < mantissas.size(); ++i) {
    const Bus offset = build_sub_assume_ge(nl, max_exp, exponents[i]);
    // Low bits drive the barrel shifter; its zero-padded candidate range
    // covers offsets in [0, 2^sb).
    Bus sh(offset.begin(),
           offset.begin() + std::min<std::ptrdiff_t>(sb, be));
    sh = zext(nl, sh, sb);
    Bus shifted = build_right_shifter(nl, mantissas[i], sh);
    if (be > sb) {
      // Any higher offset bit set means the mantissa is shifted out
      // entirely: flush to zero.  gated = shifted & ~flush.
      std::vector<NetId> high(offset.begin() + sb, offset.end());
      const NetId flush = or_reduce(nl, high);
      for (auto& bit : shifted) bit = nor2(nl, flush, inv(nl, bit));
    }
    aligned.push_back(std::move(shifted));
  }
  return aligned;
}

FpResult build_int_to_fp(Netlist& nl, const Bus& value, int bm, int be,
                         int bias) {
  SEGA_EXPECTS(!value.empty());
  SEGA_EXPECTS(bm >= 1 && be >= 1 && bias >= 0);
  const int br = static_cast<int>(value.size());

  // Prefix ORs from the MSB: pre[i] = value[br-1] | ... | value[i].
  Bus pre(value.size());
  pre[static_cast<std::size_t>(br - 1)] = value[static_cast<std::size_t>(br - 1)];
  for (int i = br - 2; i >= 0; --i) {
    pre[static_cast<std::size_t>(i)] =
        or2(nl, value[static_cast<std::size_t>(i)],
            pre[static_cast<std::size_t>(i + 1)]);
  }
  const NetId found = pre[0];

  // Leading-one one-hot: leader[i] = value[i] & ~pre[i+1].
  Bus leader(value.size());
  leader[static_cast<std::size_t>(br - 1)] =
      value[static_cast<std::size_t>(br - 1)];
  for (int i = 0; i < br - 1; ++i) {
    leader[static_cast<std::size_t>(i)] =
        nor2(nl, inv(nl, value[static_cast<std::size_t>(i)]),
             pre[static_cast<std::size_t>(i + 1)]);
  }

  // Normalizing left-shift amount s = br-1-p, encoded from the one-hot:
  // bit b of s = OR of leader[i] over i where bit b of (br-1-i) is set.
  const int pw = ceil_log2(static_cast<std::uint64_t>(br));
  Bus shamt(static_cast<std::size_t>(std::max(pw, 1)));
  for (int b = 0; b < std::max(pw, 1); ++b) {
    std::vector<NetId> terms;
    for (int i = 0; i < br; ++i) {
      if (((br - 1 - i) >> b) & 1) {
        terms.push_back(leader[static_cast<std::size_t>(i)]);
      }
    }
    shamt[static_cast<std::size_t>(b)] =
        terms.empty() ? nl.const0() : or_reduce(nl, terms);
  }

  const Bus norm = build_left_shifter(nl, value, shamt);

  // Mantissa: top bm bits of the normalized value (MSB-aligned; includes the
  // leading one).  If bm > br, pad at the bottom.
  Bus mant(static_cast<std::size_t>(bm));
  for (int j = 0; j < bm; ++j) {
    const int src = br - bm + j;
    mant[static_cast<std::size_t>(j)] =
        (src >= 0) ? norm[static_cast<std::size_t>(src)] : nl.const0();
  }

  // Exponent: (bias + br - 1) - s.
  const Bus base = const_bus(
      nl, static_cast<std::uint64_t>(bias + br - 1), be);
  Bus exp = build_sub_assume_ge(nl, base, zext(nl, shamt, be));

  // Zero input -> all-zero FP result.
  const NetId not_found = inv(nl, found);
  for (auto& bit : mant) bit = nor2(nl, not_found, inv(nl, bit));
  for (auto& bit : exp) bit = nor2(nl, not_found, inv(nl, bit));
  return {std::move(mant), std::move(exp)};
}

}  // namespace sega
