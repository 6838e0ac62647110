// DcimHarness — drives a generated macro netlist through complete MVM
// operations at the gate level.
//
// Protocol per operand batch (one weight slot):
//   1. program weights (inverted bits into SRAM),
//   2. clear every DFF (canonical operand state, see below), present the
//      operands on the input ports, clock once to load the input buffer,
//   3. clear the accumulators (system reset; see DESIGN.md),
//   4. stream ceil(Bx/k) slices MSB-first (slice = 0..cycles-1), one clock
//      each,
//   5. read the fused outputs.
//
// Canonical operand state: every compute starts from all-zero DFFs, and an
// energy trace re-baselines (GateSim::trace_barrier) once the operand,
// wsel, slice and valid inputs are all presented.  The traced activity of
// one operand is therefore a pure function of (SRAM contents, operand,
// slot) — history-free — which is what lets compute_int_batch /
// compute_fp_batch replay up to 64 operands as independent GateSimWide
// lanes with bit-identical toggle counts, and what keeps forced-write
// (programming/reset) events out of the compute-energy measurement.
//
// Construction elaborates the macro and levelizes it once; the harness owns
// that SimTopology and lends it to STA and to each simulation engine, and it
// builds an engine only when one is first asked for.  It remembers every
// SRAM bit programmed through load_weight*, so an engine built later starts
// from the same weights.
//
// All arithmetic is unsigned (see DESIGN.md on signedness).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "rtl/macro_builder.h"
#include "rtl/sim.h"

namespace sega {

class DcimHarness {
 public:
  explicit DcimHarness(const DesignPoint& dp);

  const DcimMacro& macro() const { return macro_; }

  /// The levelization of macro().netlist that both engines read; STA can
  /// propagate over it too (run_sta(netlist, topology(), tech)).
  const SimTopology& topology() const { return topo_; }

  /// The scalar simulator behind compute_int/compute_fp, exposed so
  /// measurement passes (energy tracing, net probing) can observe a
  /// compute_*() run without re-implementing the streaming protocol.
  GateSim& sim();

  /// The lane-packed simulator backing the batch entry points (it costs 8
  /// bytes per net).
  ///
  /// Both engines are built on first use and start from the SRAM bits
  /// load_weight* has programmed so far; later load_weight* calls program
  /// every engine built.  Bits written directly on one engine's set_sram
  /// stay with that engine.
  GateSimWide& wide_sim();

  /// Program weight @p value (unsigned, < 2^Bw) for (group, row, slot).
  void load_weight(std::int64_t group, std::int64_t row, std::int64_t slot,
                   std::uint64_t value);

  /// Convenience: weights[g][r] for slot @p slot.
  void load_weights(const std::vector<std::vector<std::uint64_t>>& weights,
                    std::int64_t slot);

  /// Run one INT MVM against weight slot @p slot: inputs[r] unsigned < 2^Bx.
  /// Returns the fused result per column group.
  std::vector<std::uint64_t> compute_int(
      const std::vector<std::uint64_t>& inputs, std::int64_t slot);

  /// Lane-packed batch of 1..64 INT MVMs: operand @p inputs[op] streams in
  /// lane op against weight slot @p slots[op], all lanes in lockstep through
  /// one run of the streaming protocol.  Returns the per-group results per
  /// operand; bit-identical (results and traced activity alike) to calling
  /// compute_int once per operand.
  std::vector<std::vector<std::uint64_t>> compute_int_batch(
      const std::vector<std::vector<std::uint64_t>>& inputs,
      const std::vector<std::int64_t>& slots);

  /// Signed-weight variants (macro built with signed_weights = true):
  /// weights in [-2^(Bw-1), 2^(Bw-1)), stored as two's complement; outputs
  /// read back sign-extended.
  void load_weight_signed(std::int64_t group, std::int64_t row,
                          std::int64_t slot, std::int64_t value);
  void load_weights_signed(
      const std::vector<std::vector<std::int64_t>>& weights,
      std::int64_t slot);
  std::vector<std::int64_t> compute_int_signed(
      const std::vector<std::uint64_t>& inputs, std::int64_t slot);

  /// Run one FP MVM (FP-CIM macros): per-row exponents and mantissas
  /// (mantissa includes the implicit leading one, < 2^BM).  Returns the
  /// converted {mantissa, exponent} per group plus the batch max exponent.
  struct FpOutput {
    std::vector<std::uint64_t> mantissa;
    std::vector<std::uint64_t> exponent;
    std::uint64_t max_exp = 0;
  };
  FpOutput compute_fp(const std::vector<std::uint64_t>& exponents,
                      const std::vector<std::uint64_t>& mantissas,
                      std::int64_t slot);

  /// Lane-packed batch of 1..64 FP MVMs (see compute_int_batch).
  std::vector<FpOutput> compute_fp_batch(
      const std::vector<std::vector<std::uint64_t>>& exponents,
      const std::vector<std::vector<std::uint64_t>>& mantissas,
      const std::vector<std::int64_t>& slots);

 private:
  void run_streaming(std::int64_t slot);
  void run_streaming_wide(const std::vector<std::int64_t>& slots);
  /// Packs per-operand wsel values into per-bit lane words and checks the
  /// slot range.
  std::vector<std::uint64_t> pack_slots(
      const std::vector<std::int64_t>& slots) const;

  DcimMacro macro_;
  SimTopology topo_;
  std::vector<std::uint8_t> sram_bits_;  // per SRAM cell, via load_weight*
  std::unique_ptr<GateSim> sim_;
  std::unique_ptr<GateSimWide> wide_;
};

}  // namespace sega
