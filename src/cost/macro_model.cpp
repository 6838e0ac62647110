#include "cost/macro_model.h"

#include <algorithm>

#include "util/assert.h"
#include "util/math.h"

namespace sega {

std::array<double, 4> MacroMetrics::objectives() const {
  return {area_mm2, delay_ns, energy_per_mvm_nj, -throughput_tops};
}

const char* objective_name(std::size_t index) {
  switch (index) {
    case 0: return "area_mm2";
    case 1: return "delay_ns";
    case 2: return "energy_per_mvm_nj";
    case 3: return "neg_throughput_tops";
  }
  SEGA_ASSERT(false);
  return "";
}

const char* macro_component_name(MacroComponent component) {
  switch (component) {
    case MacroComponent::kSram: return "sram";
    case MacroComponent::kCompute: return "compute";
    case MacroComponent::kAdderTree: return "adder_tree";
    case MacroComponent::kAccumulator: return "accumulator";
    case MacroComponent::kFusion: return "fusion";
    case MacroComponent::kInputBuffer: return "input_buffer";
    case MacroComponent::kPreAlignment: return "pre_alignment";
    case MacroComponent::kIntToFp: return "int_to_fp";
  }
  SEGA_ASSERT(false);
  return "";
}

// -------------------------------------------------------- stage 2: census

void MacroCensus::add(MacroComponent component, const ModuleCost& unit,
                      std::int64_t copies, double energy_mul,
                      double energy_div) {
  SEGA_ASSERT(part_count < static_cast<int>(parts.size()));
  ComponentUse& use = parts[static_cast<std::size_t>(part_count++)];
  use.component = component;
  use.unit = unit;
  use.copies = copies;
  use.energy_mul = energy_mul;
  use.energy_div = energy_div;
}

MacroCensus census_macro(const Technology& tech, const DesignPoint& dp) {
  SEGA_EXPECTS(dp.n >= 1 && dp.h >= 2 && dp.l >= 1 && dp.k >= 1);
  SEGA_EXPECTS(dp.arch == arch_for(dp.precision));

  MacroCensus census;
  census.n = dp.n;
  census.h = dp.h;
  census.bx = dp.precision.input_bits();
  census.bw = dp.precision.weight_bits();
  SEGA_EXPECTS(dp.k <= census.bx);
  const int h = static_cast<int>(dp.h);
  const int k = static_cast<int>(dp.k);
  census.cycles = static_cast<std::int64_t>(
      ceil_div(static_cast<std::uint64_t>(census.bx),
               static_cast<std::uint64_t>(dp.k)));

  // Memory array: N*H*L SRAM bit cells (zero read latency/power per Table III).
  ModuleCost sram;
  sram.gates[CellKind::kSram] = 1;
  sram.area = tech.cell(CellKind::kSram).area;
  sram.energy = tech.cell(CellKind::kSram).energy;
  census.add(MacroComponent::kSram, sram, dp.n * dp.h * dp.l);

  // Compute units: per cell one L:1 1-bit weight selector + a 1xk multiplier.
  const ModuleCost wsel = sel_cost(tech, static_cast<int>(dp.l));
  const ModuleCost mul = mul_cost(tech, k);
  census.add(MacroComponent::kCompute, wsel, dp.n * dp.h);
  census.add(MacroComponent::kCompute, mul, dp.n * dp.h);

  // Column adder trees (optionally pipelined — extension knob).
  const ModuleCost tree = dp.pipelined_tree
                              ? adder_tree_pipelined_cost(tech, h, k)
                              : adder_tree_cost(tech, h, k);
  census.add(MacroComponent::kAdderTree, tree, dp.n);

  // Shift accumulators (gated when the tree is pipelined).
  const ModuleCost accu = dp.pipelined_tree
                              ? shift_accumulator_gated_cost(tech, census.bx, h)
                              : shift_accumulator_cost(tech, census.bx, h);
  census.add(MacroComponent::kAccumulator, accu, dp.n);

  // Result fusion: one unit per Bw columns; fires once per streamed operand,
  // amortized over the streaming cycles.
  const int w = accumulator_width(census.bx, h);
  const ModuleCost fusion = result_fusion_cost(tech, census.bw, w);
  const std::int64_t fusion_units = static_cast<std::int64_t>(
      ceil_div(static_cast<std::uint64_t>(dp.n),
               static_cast<std::uint64_t>(census.bw)));
  census.add(MacroComponent::kFusion, fusion, fusion_units,
             1.0 / static_cast<double>(census.cycles));

  // Input buffer.
  const ModuleCost buf = input_buffer_cost(tech, h, census.bx, k);
  census.add(MacroComponent::kInputBuffer, buf, 1);

  census.array_path_delay = buf.delay + wsel.delay + mul.delay + tree.delay;
  census.accu_delay = accu.delay;
  census.fusion_delay = fusion.delay;

  if (dp.arch == ArchKind::kFpCim) {
    const int be = dp.precision.exp_bits;
    const int bm = dp.precision.compute_mant_bits();

    // FP pre-alignment: processes a fresh input set once per streamed
    // operand; amortized over the streaming cycles (a division, not a
    // reciprocal multiply — the energy_div slot keeps that rounding).
    const ModuleCost alig = pre_alignment_cost(tech, h, be, bm);
    census.add(MacroComponent::kPreAlignment, alig, 1, 1.0,
               static_cast<double>(census.cycles));
    // The pre-alignment is its own pipeline stage in front of the array.
    census.array_path_delay = std::max(census.array_path_delay, alig.delay);

    // INT-to-FP converters: one per fusion unit, on the fusion stage.
    const int br = fusion_output_width(census.bw, w);
    const ModuleCost convert = int_to_fp_cost(tech, br, be);
    census.add(MacroComponent::kIntToFp, convert, fusion_units, 1.0,
               static_cast<double>(census.cycles));
    census.fusion_delay += convert.delay;
  }

  return census;
}

// ------------------------------------------------------- stage 3: costing

CostedMacro cost_components(const MacroCensus& census) {
  CostedMacro costed;
  for (int i = 0; i < census.part_count; ++i) {
    const ComponentUse& use = census.parts[static_cast<std::size_t>(i)];
    costed.gates.add_scaled(use.unit.gates, use.copies);
    const double area = use.unit.area * static_cast<double>(use.copies);
    const double energy = use.unit.energy * static_cast<double>(use.copies) *
                          use.energy_mul / use.energy_div;
    const auto slot = static_cast<std::size_t>(use.component);
    costed.area_by[slot] += area;
    costed.energy_by[slot] += energy;
    costed.present[slot] = true;
  }
  return costed;
}

// ------------------------------------------------------ stage 4: derive

MacroMetrics derive_metrics(const EvalContext& ctx, const MacroCensus& census,
                            const CostedMacro& costed,
                            const MetricCorrection& c) {
  MacroMetrics m;
  m.gates = costed.gates;

  // Module factors fold in per census part, in the accumulation order of
  // cost_components.
  double area_g = 0.0;
  double energy_g = 0.0;
  for (int i = 0; i < census.part_count; ++i) {
    const ComponentUse& use = census.parts[static_cast<std::size_t>(i)];
    const auto slot = static_cast<std::size_t>(use.component);
    const double area = use.unit.area * static_cast<double>(use.copies);
    const double energy = use.unit.energy * static_cast<double>(use.copies) *
                          use.energy_mul / use.energy_div;
    area_g += c.area_factor[slot] * area;
    energy_g += c.energy_factor[slot] * energy;
  }
  const double delay_g = std::max(
      {census.array_path_delay, census.accu_delay, census.fusion_delay});
  m.area_gates = c.area_scale * area_g;
  m.energy_gates = c.energy_scale * energy_g;
  m.delay_gates = c.delay_scale * delay_g;
  for (int i = 0; i < kMacroComponentCount; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    if (!costed.present[slot]) continue;
    const char* key = macro_component_name(static_cast<MacroComponent>(i));
    m.area_breakdown[key] =
        c.area_scale * (c.area_factor[slot] * costed.area_by[slot]);
    m.energy_breakdown[key] =
        c.energy_scale * (c.energy_factor[slot] * costed.energy_by[slot]);
  }
  m.cycles_per_input = census.cycles;

  m.area_um2 = c.area_scale * ctx.area_um2(area_g);
  m.area_mm2 = c.area_scale * (ctx.area_um2(area_g) * 1e-6);
  m.delay_ns = c.delay_scale * ctx.delay_ns(delay_g);
  SEGA_ASSERT(m.delay_ns > 0.0);
  m.freq_ghz = 1.0 / m.delay_ns;
  const double cycle_raw = ctx.energy_fj(energy_g);
  m.energy_per_cycle_fj = c.energy_scale * cycle_raw;
  m.energy_per_mvm_nj =
      c.energy_scale *
      (cycle_raw * static_cast<double>(m.cycles_per_input) * 1e-6);
  m.power_w = m.energy_per_cycle_fj * 1e-15 / (m.delay_ns * 1e-9);

  // Throughput (Table V/VI): every group of Bw columns completes N*H/Bw
  // MACs per ceil(Bx/k) cycles; 1 MAC = 2 ops.
  const double macs_per_cycle =
      static_cast<double>(census.n) * static_cast<double>(census.h) /
      (static_cast<double>(census.bw) *
       static_cast<double>(m.cycles_per_input));
  const double ops_per_s = 2.0 * macs_per_cycle / (m.delay_ns * 1e-9);
  m.throughput_tops = c.throughput_scale * (ops_per_s * 1e-12);
  m.tops_per_w = m.throughput_tops / m.power_w;
  m.tops_per_mm2 = m.throughput_tops / m.area_mm2;
  return m;
}

MacroMetrics evaluate_macro(const Technology& tech, const DesignPoint& dp,
                            const EvalConditions& cond) {
  const EvalContext ctx(tech, cond);
  const MacroCensus census = census_macro(tech, dp);
  return derive_metrics(ctx, census, cost_components(census));
}

}  // namespace sega
