#include "rtl/harness.h"
#include <algorithm>

#include "util/assert.h"
#include "util/strings.h"

namespace sega {

namespace {

/// Packs one bit-sliced operand set: word i holds, per lane, bit i of that
/// lane's value.
std::vector<std::uint64_t> pack_values(const std::vector<std::uint64_t>& lanes,
                                       int width) {
  std::vector<std::uint64_t> words(static_cast<std::size_t>(width), 0);
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    for (int b = 0; b < width; ++b) {
      if ((lanes[k] >> b) & 1u) {
        words[static_cast<std::size_t>(b)] |= std::uint64_t{1} << k;
      }
    }
  }
  return words;
}

}  // namespace

DcimHarness::DcimHarness(const DesignPoint& dp)
    : macro_(build_dcim_macro(dp)),
      topo_(macro_.netlist),
      sram_bits_(macro_.netlist.sram_cells().size(), 0) {}

namespace {

/// Builds an engine over the harness's topology, programmed with the SRAM
/// bits recorded so far (a fresh engine holds zeros everywhere else).
template <typename Engine>
std::unique_ptr<Engine> build_engine(const DcimMacro& macro,
                                     const SimTopology& topo,
                                     const std::vector<std::uint8_t>& bits) {
  auto engine = std::make_unique<Engine>(macro.netlist, topo);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] != 0) engine->set_sram(i, true);
  }
  return engine;
}

}  // namespace

GateSim& DcimHarness::sim() {
  if (!sim_) sim_ = build_engine<GateSim>(macro_, topo_, sram_bits_);
  return *sim_;
}

GateSimWide& DcimHarness::wide_sim() {
  if (!wide_) wide_ = build_engine<GateSimWide>(macro_, topo_, sram_bits_);
  return *wide_;
}

void DcimHarness::load_weight(std::int64_t group, std::int64_t row,
                              std::int64_t slot, std::uint64_t value) {
  const int bw = macro_.dp.precision.weight_bits();
  SEGA_EXPECTS(value < (std::uint64_t{1} << bw));
  for (int j = 0; j < bw; ++j) {
    const std::int64_t column = group * bw + j;
    SEGA_EXPECTS(column < macro_.dp.n);
    const bool bit = (value >> j) & 1u;
    // Inverted storage: SRAM holds WB.
    const std::size_t index = macro_.sram_index(column, row, slot);
    sram_bits_[index] = bit ? 0 : 1;
    if (sim_) sim_->set_sram(index, !bit);
    if (wide_) wide_->set_sram(index, !bit);
  }
}

void DcimHarness::load_weights(
    const std::vector<std::vector<std::uint64_t>>& weights,
    std::int64_t slot) {
  SEGA_EXPECTS(static_cast<int>(weights.size()) == macro_.groups);
  for (std::size_t g = 0; g < weights.size(); ++g) {
    SEGA_EXPECTS(static_cast<std::int64_t>(weights[g].size()) == macro_.dp.h);
    for (std::size_t r = 0; r < weights[g].size(); ++r) {
      load_weight(static_cast<std::int64_t>(g), static_cast<std::int64_t>(r),
                  slot, weights[g][r]);
    }
  }
}

void DcimHarness::run_streaming(std::int64_t slot) {
  SEGA_EXPECTS(slot >= 0 && slot < macro_.dp.l);
  // Canonical operand state: every DFF cleared, so the traced trajectory is
  // a pure function of (SRAM, operand, slot) — see harness.h.  The clears
  // are forced writes (never billed); the trace window opens at the barrier
  // below, once every input of this operand is presented.
  GateSim& scalar = sim();
  scalar.clear_registers();
  scalar.set_input("wsel", static_cast<std::uint64_t>(slot));
  const int latency = macro_.tree_latency;
  scalar.set_input("slice", 0);
  if (latency > 0) scalar.set_input("valid", 0);
  scalar.trace_barrier();
  // Load the input buffer.
  scalar.step();
  // Clear accumulators (the buffer keeps recapturing the held operands).
  for (const std::size_t ci : macro_.accumulator_dffs) {
    scalar.set_register(ci, false);
  }
  // Stream the slices MSB-first.  With a pipelined tree the partial for the
  // slice driven at step t reaches the accumulator at step t + latency, so
  // the accumulate-enable window is shifted by the pipeline depth.
  const int total = macro_.cycles + latency;
  for (int t = 0; t < total; ++t) {
    const int c = std::min(t, macro_.cycles - 1);
    scalar.set_input("slice", static_cast<std::uint64_t>(c));
    if (latency > 0) scalar.set_input("valid", t >= latency ? 1 : 0);
    scalar.step();
  }
}

std::vector<std::uint64_t> DcimHarness::pack_slots(
    const std::vector<std::int64_t>& slots) const {
  std::vector<std::uint64_t> raw(slots.size());
  for (std::size_t k = 0; k < slots.size(); ++k) {
    SEGA_EXPECTS(slots[k] >= 0 && slots[k] < macro_.dp.l);
    raw[k] = static_cast<std::uint64_t>(slots[k]);
  }
  return pack_values(raw, macro_.wsel_bits);
}

void DcimHarness::run_streaming_wide(const std::vector<std::int64_t>& slots) {
  // Lockstep replay of run_streaming: lane k runs the exact scalar protocol
  // for operand k (inputs were packed by the caller).  Step-for-step
  // equivalence is what the differential fuzz suite asserts.
  GateSimWide& wide = wide_sim();
  wide.set_active_lanes(static_cast<int>(slots.size()));
  wide.clear_registers();
  wide.set_input_lanes("wsel", pack_slots(slots));
  const int latency = macro_.tree_latency;
  wide.set_input_all("slice", 0);
  if (latency > 0) wide.set_input_all("valid", 0);
  wide.trace_barrier();
  wide.step();
  for (const std::size_t ci : macro_.accumulator_dffs) {
    wide.set_register(ci, false);
  }
  const int total = macro_.cycles + latency;
  for (int t = 0; t < total; ++t) {
    const int c = std::min(t, macro_.cycles - 1);
    wide.set_input_all("slice", static_cast<std::uint64_t>(c));
    if (latency > 0) wide.set_input_all("valid", t >= latency ? 1 : 0);
    wide.step();
  }
}

std::vector<std::uint64_t> DcimHarness::compute_int(
    const std::vector<std::uint64_t>& inputs, std::int64_t slot) {
  SEGA_EXPECTS(macro_.dp.arch == ArchKind::kMulCim);
  SEGA_EXPECTS(static_cast<std::int64_t>(inputs.size()) == macro_.dp.h);
  const int bx = macro_.dp.precision.input_bits();
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    SEGA_EXPECTS(inputs[r] < (std::uint64_t{1} << bx));
    const std::uint64_t mask = (std::uint64_t{1} << bx) - 1;
    sim().set_input(strfmt("inb%zu", r), ~inputs[r] & mask);
  }
  run_streaming(slot);
  std::vector<std::uint64_t> out(static_cast<std::size_t>(macro_.groups));
  for (int g = 0; g < macro_.groups; ++g) {
    out[static_cast<std::size_t>(g)] = sim().read_output(strfmt("out%d", g));
  }
  return out;
}

std::vector<std::vector<std::uint64_t>> DcimHarness::compute_int_batch(
    const std::vector<std::vector<std::uint64_t>>& inputs,
    const std::vector<std::int64_t>& slots) {
  SEGA_EXPECTS(macro_.dp.arch == ArchKind::kMulCim);
  const std::size_t lanes = inputs.size();
  SEGA_EXPECTS(lanes >= 1 &&
               lanes <= static_cast<std::size_t>(GateSimWide::kLanes));
  SEGA_EXPECTS(slots.size() == lanes);
  const int bx = macro_.dp.precision.input_bits();
  const std::uint64_t mask = (std::uint64_t{1} << bx) - 1;
  GateSimWide& wide = wide_sim();
  std::vector<std::uint64_t> row(lanes);
  for (std::int64_t r = 0; r < macro_.dp.h; ++r) {
    for (std::size_t k = 0; k < lanes; ++k) {
      SEGA_EXPECTS(static_cast<std::int64_t>(inputs[k].size()) == macro_.dp.h);
      const std::uint64_t v = inputs[k][static_cast<std::size_t>(r)];
      SEGA_EXPECTS(v < (std::uint64_t{1} << bx));
      row[k] = ~v & mask;
    }
    wide.set_input_lanes(strfmt("inb%zu", static_cast<std::size_t>(r)),
                         pack_values(row, bx));
  }
  run_streaming_wide(slots);
  std::vector<std::vector<std::uint64_t>> out(
      lanes, std::vector<std::uint64_t>(static_cast<std::size_t>(
                 macro_.groups)));
  for (std::size_t k = 0; k < lanes; ++k) {
    for (int g = 0; g < macro_.groups; ++g) {
      out[k][static_cast<std::size_t>(g)] =
          wide.read_output_lane(strfmt("out%d", g), static_cast<int>(k));
    }
  }
  return out;
}

void DcimHarness::load_weight_signed(std::int64_t group, std::int64_t row,
                                     std::int64_t slot, std::int64_t value) {
  SEGA_EXPECTS(macro_.dp.signed_weights);
  const int bw = macro_.dp.precision.weight_bits();
  const std::int64_t lo = -(std::int64_t{1} << (bw - 1));
  const std::int64_t hi = (std::int64_t{1} << (bw - 1)) - 1;
  SEGA_EXPECTS(value >= lo && value <= hi);
  const std::uint64_t mask = (std::uint64_t{1} << bw) - 1;
  load_weight(group, row, slot, static_cast<std::uint64_t>(value) & mask);
}

void DcimHarness::load_weights_signed(
    const std::vector<std::vector<std::int64_t>>& weights, std::int64_t slot) {
  SEGA_EXPECTS(static_cast<int>(weights.size()) == macro_.groups);
  for (std::size_t g = 0; g < weights.size(); ++g) {
    SEGA_EXPECTS(static_cast<std::int64_t>(weights[g].size()) == macro_.dp.h);
    for (std::size_t r = 0; r < weights[g].size(); ++r) {
      load_weight_signed(static_cast<std::int64_t>(g),
                         static_cast<std::int64_t>(r), slot, weights[g][r]);
    }
  }
}

std::vector<std::int64_t> DcimHarness::compute_int_signed(
    const std::vector<std::uint64_t>& inputs, std::int64_t slot) {
  SEGA_EXPECTS(macro_.dp.signed_weights);
  const auto raw = compute_int(inputs, slot);
  std::vector<std::int64_t> out(raw.size());
  const int width = macro_.out_width;
  const std::uint64_t sign_bit = std::uint64_t{1} << (width - 1);
  for (std::size_t g = 0; g < raw.size(); ++g) {
    std::uint64_t v = raw[g];
    if (v & sign_bit) v |= ~((sign_bit << 1) - 1);  // sign-extend
    out[g] = static_cast<std::int64_t>(v);
  }
  return out;
}

DcimHarness::FpOutput DcimHarness::compute_fp(
    const std::vector<std::uint64_t>& exponents,
    const std::vector<std::uint64_t>& mantissas, std::int64_t slot) {
  SEGA_EXPECTS(macro_.dp.arch == ArchKind::kFpCim);
  SEGA_EXPECTS(static_cast<std::int64_t>(exponents.size()) == macro_.dp.h);
  SEGA_EXPECTS(exponents.size() == mantissas.size());
  const int be = macro_.dp.precision.exp_bits;
  const int bm = macro_.dp.precision.input_bits();
  for (std::size_t r = 0; r < exponents.size(); ++r) {
    SEGA_EXPECTS(exponents[r] < (std::uint64_t{1} << be));
    SEGA_EXPECTS(mantissas[r] < (std::uint64_t{1} << bm));
    sim().set_input(strfmt("exp%zu", r), exponents[r]);
    sim().set_input(strfmt("mant%zu", r), mantissas[r]);
  }
  run_streaming(slot);
  FpOutput out;
  out.mantissa.resize(static_cast<std::size_t>(macro_.groups));
  out.exponent.resize(static_cast<std::size_t>(macro_.groups));
  for (int g = 0; g < macro_.groups; ++g) {
    out.mantissa[static_cast<std::size_t>(g)] =
        sim().read_output(strfmt("out_mant%d", g));
    out.exponent[static_cast<std::size_t>(g)] =
        sim().read_output(strfmt("out_exp%d", g));
  }
  out.max_exp = sim().read_output("max_exp");
  return out;
}

std::vector<DcimHarness::FpOutput> DcimHarness::compute_fp_batch(
    const std::vector<std::vector<std::uint64_t>>& exponents,
    const std::vector<std::vector<std::uint64_t>>& mantissas,
    const std::vector<std::int64_t>& slots) {
  SEGA_EXPECTS(macro_.dp.arch == ArchKind::kFpCim);
  const std::size_t lanes = exponents.size();
  SEGA_EXPECTS(lanes >= 1 &&
               lanes <= static_cast<std::size_t>(GateSimWide::kLanes));
  SEGA_EXPECTS(mantissas.size() == lanes && slots.size() == lanes);
  const int be = macro_.dp.precision.exp_bits;
  const int bm = macro_.dp.precision.input_bits();
  GateSimWide& wide = wide_sim();
  std::vector<std::uint64_t> row(lanes);
  for (std::int64_t r = 0; r < macro_.dp.h; ++r) {
    for (std::size_t k = 0; k < lanes; ++k) {
      SEGA_EXPECTS(static_cast<std::int64_t>(exponents[k].size()) ==
                   macro_.dp.h);
      SEGA_EXPECTS(exponents[k].size() == mantissas[k].size());
      const std::uint64_t e = exponents[k][static_cast<std::size_t>(r)];
      SEGA_EXPECTS(e < (std::uint64_t{1} << be));
      row[k] = e;
    }
    wide.set_input_lanes(strfmt("exp%zu", static_cast<std::size_t>(r)),
                         pack_values(row, be));
    for (std::size_t k = 0; k < lanes; ++k) {
      const std::uint64_t m = mantissas[k][static_cast<std::size_t>(r)];
      SEGA_EXPECTS(m < (std::uint64_t{1} << bm));
      row[k] = m;
    }
    wide.set_input_lanes(strfmt("mant%zu", static_cast<std::size_t>(r)),
                         pack_values(row, bm));
  }
  run_streaming_wide(slots);
  std::vector<FpOutput> out(lanes);
  for (std::size_t k = 0; k < lanes; ++k) {
    const int lane = static_cast<int>(k);
    out[k].mantissa.resize(static_cast<std::size_t>(macro_.groups));
    out[k].exponent.resize(static_cast<std::size_t>(macro_.groups));
    for (int g = 0; g < macro_.groups; ++g) {
      out[k].mantissa[static_cast<std::size_t>(g)] =
          wide.read_output_lane(strfmt("out_mant%d", g), lane);
      out[k].exponent[static_cast<std::size_t>(g)] =
          wide.read_output_lane(strfmt("out_exp%d", g), lane);
    }
    out[k].max_exp = wide.read_output_lane("max_exp", lane);
  }
  return out;
}

}  // namespace sega
