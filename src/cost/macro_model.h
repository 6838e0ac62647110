// Tables V & VI — full-macro performance estimation for the two DCIM
// architectures, plus absolute-unit metrics derived through a Technology.
//
// This is the objective function of the design-space explorer: the NSGA-II
// optimizer minimizes [area, delay, energy, -throughput] as produced here
// (eq. (2) for MUL-CIM and eq. (3) for FP-CIM).
//
// The evaluation is an explicit staged pipeline (the layered engine the
// batched CostModel builds on):
//
//   EvalContext        — per-(Technology, EvalConditions) constants, hoisted
//                        out of the per-point hot path (eval_context.h)
//   census_macro       — gate census: which module instances the macro is
//                        made of, with unit costs, copy counts and energy
//                        amortization (Table IV structure)
//   cost_components    — component costing: fold the census into normalized
//                        area / per-cycle energy / leaf-cell totals
//   derive_metrics     — absolute-metric derivation through the EvalContext
//
// evaluate_macro() composes the stages and is the scalar reference path;
// AnalyticCostModel::evaluate_batch (cost_model.h) runs the same stages per
// point under a per-batch module-cost memo, producing bit-identical metrics.
#pragma once

#include <array>
#include <map>
#include <string>
#include <tuple>

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

/// Memo of Table II/IV module costs keyed on their structural parameters.
/// The batched evaluation path shares one memo across a batch: neighbouring
/// design points reuse the same selectors, trees and accumulators, so most
/// census lookups become map hits.  Bound to one Technology; NOT thread-safe
/// (use one memo per batch/thread).
class ModuleCostMemo {
 public:
  explicit ModuleCostMemo(const Technology& tech) : tech_(&tech) {}

  const Technology& tech() const { return *tech_; }

  const ModuleCost& sel(int n);
  const ModuleCost& mul(int k);
  const ModuleCost& adder_tree(int h, int k, bool pipelined);
  const ModuleCost& shift_accumulator(int bx, int h, bool gated);
  const ModuleCost& result_fusion(int bw, int w);
  const ModuleCost& input_buffer(int h, int bx, int k);
  const ModuleCost& pre_alignment(int h, int be, int bm);
  const ModuleCost& int_to_fp(int br, int be);

 private:
  const Technology* tech_;
  std::map<int, ModuleCost> sel_, mul_;
  std::map<std::tuple<int, int, bool>, ModuleCost> tree_, accu_;
  std::map<std::tuple<int, int>, ModuleCost> fusion_, convert_;
  std::map<std::tuple<int, int, int>, ModuleCost> buffer_, align_;
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
/// @p memo, when given, must be bound to @p tech.
MacroCensus census_macro(const Technology& tech, const DesignPoint& dp,
                         ModuleCostMemo* memo = nullptr);

/// Stage-3 output: normalized totals and per-component breakdown.
struct CostedMacro {
  GateCount gates;
  double area = 0.0;
  double energy_per_cycle = 0.0;
  std::array<double, kMacroComponentCount> area_by{};
  std::array<double, kMacroComponentCount> energy_by{};
  std::array<bool, kMacroComponentCount> present{};
};

/// Fold a census into normalized component costs (accumulation order is the
/// census part order — the historical evaluate_macro order).
CostedMacro cost_components(const MacroCensus& census);

/// Stage 4: absolute metrics through the hoisted context.
MacroMetrics derive_metrics(const EvalContext& ctx, const MacroCensus& census,
                            const CostedMacro& costed);

/// Evaluate a validated design point — the scalar reference path, composing
/// the four stages above.
MacroMetrics evaluate_macro(const Technology& tech, const DesignPoint& dp,
                            const EvalConditions& cond = {});

/// Name of each objective in MacroMetrics::objectives() order.
const char* objective_name(std::size_t index);

}  // namespace sega
