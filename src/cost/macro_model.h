// Tables V & VI — full-macro performance estimation for the two DCIM
// architectures, plus absolute-unit metrics derived through a Technology.
//
// This is the objective function of the design-space explorer: the NSGA-II
// optimizer minimizes [area, delay, energy, -throughput] as produced here
// (eq. (2) for MUL-CIM and eq. (3) for FP-CIM).
//
// The evaluation is an explicit staged pipeline:
//
//   EvalContext        — per-(Technology, EvalConditions) constants, hoisted
//                        out of the per-point hot path (eval_context.h)
//   census_macro       — gate census: which module instances the macro is
//                        made of, with unit costs, copy counts and energy
//                        amortization (Table IV structure)
//   cost_components    — component costing: fold the census into the
//                        leaf-cell total and the per-component breakdown
//   derive_metrics     — absolute-metric derivation through the EvalContext,
//                        under a MetricCorrection (identity by default)
//
// evaluate_macro() composes the stages; AnalyticCostModel (cost_model.h)
// runs the same stages per point under its calibration's correction.
#pragma once

#include <array>
#include <map>
#include <string>

#include "arch/design_point.h"
#include "cost/components.h"
#include "cost/eval_context.h"

namespace sega {

/// Version of the analytic cost model's formulas.  Bump whenever a change
/// alters any produced metric: persisted cost-cache memo files are
/// fingerprinted with this so stale caches can never leak old numbers into
/// new runs.
inline constexpr int kCostModelVersion = 1;

/// Evaluation of one design point.  Normalized quantities are in NOR-gate
/// units; absolute quantities are derived through the Technology and the
/// EvalConditions.
struct MacroMetrics {
  // --- normalized (gate units) ---
  GateCount gates;               ///< full leaf-cell census
  double area_gates = 0.0;       ///< total area
  double delay_gates = 0.0;      ///< pipeline-stage critical path
  double energy_gates = 0.0;     ///< switching energy per cycle

  // --- absolute ---
  double area_um2 = 0.0;
  double area_mm2 = 0.0;
  double delay_ns = 0.0;           ///< clock period
  double freq_ghz = 0.0;           ///< 1 / delay
  double energy_per_cycle_fj = 0.0;
  double power_w = 0.0;            ///< energy_per_cycle / delay
  double energy_per_mvm_nj = 0.0;  ///< full-operand pass: E_cycle * cycles
  double throughput_tops = 0.0;    ///< 2 * N * H / (Bw * cycles * delay)
  double tops_per_w = 0.0;
  double tops_per_mm2 = 0.0;

  std::int64_t cycles_per_input = 0;

  /// Per-component normalized area, keys: "sram", "compute", "adder_tree",
  /// "accumulator", "fusion", "input_buffer", and for FP-CIM additionally
  /// "pre_alignment", "int_to_fp".
  std::map<std::string, double> area_breakdown;
  /// Per-component normalized per-cycle energy, same keys.
  std::map<std::string, double> energy_breakdown;

  /// The four objectives of eq. (2)/(3) in minimization form:
  /// [area_mm2, delay_ns, energy_per_mvm_nj, -throughput_tops].
  std::array<double, 4> objectives() const;
};

/// Breakdown components of a macro, in census/accumulation order.
enum class MacroComponent {
  kSram,
  kCompute,
  kAdderTree,
  kAccumulator,
  kFusion,
  kInputBuffer,
  kPreAlignment,  ///< FP-CIM only
  kIntToFp,       ///< FP-CIM only
};
inline constexpr int kMacroComponentCount = 8;

/// Breakdown-map key of a component ("sram", "compute", ...).
const char* macro_component_name(MacroComponent component);

/// Multiplicative corrections on the analytic model: the fitted parameters
/// of a calibration (calibrate.h).  A default-constructed correction is the
/// identity — every factor and scale 1.0 — and multiplying by 1.0 is exact,
/// so deriving under it gives the uncalibrated metrics bit for bit.
struct MetricCorrection {
  /// Factors on the per-module area / per-cycle energy breakdown entries,
  /// indexed by MacroComponent.
  std::array<double, kMacroComponentCount> area_factor;
  std::array<double, kMacroComponentCount> energy_factor;
  /// Corrections applied to the final headline metrics (area_mm2 /
  /// delay_ns / energy_per_mvm_nj / throughput_tops and every quantity
  /// derived from them).
  double area_scale = 1.0;
  double delay_scale = 1.0;
  double energy_scale = 1.0;
  double throughput_scale = 1.0;

  MetricCorrection() {
    area_factor.fill(1.0);
    energy_factor.fill(1.0);
  }
};

/// One module-instance class in the census: @p copies instances of @p unit,
/// with per-cycle energy amortized as unit.energy * copies * energy_mul /
/// energy_div (the mul/div split preserves the historical rounding of the
/// streamed FP stages, which divide rather than multiply by a reciprocal).
struct ComponentUse {
  MacroComponent component = MacroComponent::kSram;
  ModuleCost unit;
  std::int64_t copies = 0;
  double energy_mul = 1.0;
  double energy_div = 1.0;
};

/// Stage-2 output: the full module census of one macro plus the stage delays
/// and the geometry facts the metric derivation needs.
struct MacroCensus {
  /// sram, weight sel, mul, tree, accumulator, fusion, input buffer,
  /// (+ pre-alignment, int-to-fp for FP-CIM), in accumulation order.
  std::array<ComponentUse, 9> parts;
  int part_count = 0;

  double array_path_delay = 0.0;  ///< buffer sel + weight sel + mul + tree
  double accu_delay = 0.0;        ///< shift accumulator loop
  double fusion_delay = 0.0;      ///< fusion (+ converter, FP)

  std::int64_t n = 0, h = 0;
  int bx = 0, bw = 0;
  std::int64_t cycles = 0;  ///< ceil(Bx / k)

  void add(MacroComponent component, const ModuleCost& unit,
           std::int64_t copies, double energy_mul = 1.0,
           double energy_div = 1.0);
};

/// Gate census of a validated design point.  Precondition: dp passes
/// validate_design for its own wstore() (structure is self-consistent).
MacroCensus census_macro(const Technology& tech, const DesignPoint& dp);

/// Stage-3 output: leaf-cell total and per-component breakdown.
struct CostedMacro {
  GateCount gates;
  std::array<double, kMacroComponentCount> area_by{};
  std::array<double, kMacroComponentCount> energy_by{};
  std::array<bool, kMacroComponentCount> present{};
};

/// Fold a census into normalized component costs (accumulation order is the
/// census part order — the historical evaluate_macro order).
CostedMacro cost_components(const MacroCensus& census);

/// Stage 4: absolute metrics through the hoisted context, with @p correction
/// applied: module factors on the component breakdowns, then the per-metric
/// scales on the final metrics, each as one trailing multiply (so metric ==
/// scale * unscaled_metric bit-exactly — the fitter's envelope guard relies
/// on this).
MacroMetrics derive_metrics(const EvalContext& ctx, const MacroCensus& census,
                            const CostedMacro& costed,
                            const MetricCorrection& correction = {});

/// Evaluate a validated design point under the uncalibrated model,
/// composing the four stages above.
MacroMetrics evaluate_macro(const Technology& tech, const DesignPoint& dp,
                            const EvalConditions& cond = {});

/// Name of each objective in MacroMetrics::objectives() order.
const char* objective_name(std::size_t index);

}  // namespace sega
