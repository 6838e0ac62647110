#include "cost/rtl_cost_model.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "cost/layout_cost.h"
#include "rtl/harness.h"
#include "rtl/sta.h"
#include "util/assert.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace sega {

namespace {

RtlSimEngine resolve_engine(RtlSimEngine requested) {
  if (requested != RtlSimEngine::kAuto) return requested;
  const char* env = std::getenv("SEGA_RTL_SIM");
  if (env == nullptr || env[0] == '\0') return RtlSimEngine::kWide;
  const std::string_view v(env);
  if (v == "wide") return RtlSimEngine::kWide;
  SEGA_EXPECTS(v == "scalar");  // the only other recognized value
  return RtlSimEngine::kScalar;
}

/// Workload RNG seed — a pure function of the design point (splitmix64-style
/// mixing of every geometry field), so a point's measurement is identical
/// across threads, batch splits, and processes.
std::uint64_t workload_seed(const DesignPoint& dp) {
  std::uint64_t h = 0x5E6A0DC1u;  // arbitrary fixed basis
  const auto mix = [&h](std::uint64_t v) {
    h += v + 0x9E3779B97F4A7C15ull;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    h ^= h >> 31;
  };
  mix(static_cast<std::uint64_t>(dp.arch));
  mix(static_cast<std::uint64_t>(dp.precision.kind));
  mix(static_cast<std::uint64_t>(dp.precision.int_bits));
  mix(static_cast<std::uint64_t>(dp.precision.exp_bits));
  mix(static_cast<std::uint64_t>(dp.precision.mant_bits));
  mix(static_cast<std::uint64_t>(dp.n));
  mix(static_cast<std::uint64_t>(dp.h));
  mix(static_cast<std::uint64_t>(dp.l));
  mix(static_cast<std::uint64_t>(dp.k));
  mix(dp.signed_weights ? 1u : 2u);
  mix(dp.pipelined_tree ? 1u : 2u);
  return h;
}

/// A random @p bits-wide operand whose bits are independently zeroed with
/// probability @p sparsity — the workload-level realization of
/// EvalConditions::input_sparsity ("zero bits do not toggle the datapath").
std::uint64_t random_operand(Rng& rng, int bits, double sparsity) {
  std::uint64_t value = 0;
  for (int b = 0; b < bits; ++b) {
    bool bit = (rng.next_u64() >> 63) != 0;
    if (bit && sparsity > 0.0 && rng.chance(sparsity)) bit = false;
    if (bit) value |= std::uint64_t{1} << b;
  }
  return value;
}

/// Scalar (verification) workload drive: one operand per settle pass.
void trace_scalar(DcimHarness& harness, const DesignPoint& dp, Rng& rng,
                  double sparsity) {
  GateSim& sim = harness.sim();
  const Netlist& nl = harness.macro().netlist;
  for (std::size_t i = 0; i < nl.sram_cells().size(); ++i) {
    sim.set_sram(i, (rng.next_u64() >> 63) != 0);
  }
  sim.begin_energy_trace();
  const int bx = dp.precision.input_bits();
  if (dp.arch == ArchKind::kMulCim) {
    std::vector<std::uint64_t> inputs(static_cast<std::size_t>(dp.h));
    for (int op = 0; op < kRtlWorkloadOperands; ++op) {
      for (auto& in : inputs) in = random_operand(rng, bx, sparsity);
      harness.compute_int(inputs, op % dp.l);
    }
  } else {
    const int be = dp.precision.exp_bits;
    std::vector<std::uint64_t> exponents(static_cast<std::size_t>(dp.h));
    std::vector<std::uint64_t> mantissas(static_cast<std::size_t>(dp.h));
    for (int op = 0; op < kRtlWorkloadOperands; ++op) {
      for (auto& e : exponents) e = random_operand(rng, be, 0.0);
      for (auto& mant : mantissas) mant = random_operand(rng, bx, sparsity);
      harness.compute_fp(exponents, mantissas, op % dp.l);
    }
  }
}

/// Lane-packed (production) workload drive: identical RNG draw order, but
/// 64 operands settle per pass — operand base+k rides lane k, exactly what
/// scalar iteration base+k saw.
void trace_wide(DcimHarness& harness, const DesignPoint& dp, Rng& rng,
                double sparsity) {
  GateSimWide& sim = harness.wide_sim();
  const Netlist& nl = harness.macro().netlist;
  for (std::size_t i = 0; i < nl.sram_cells().size(); ++i) {
    sim.set_sram(i, (rng.next_u64() >> 63) != 0);
  }
  sim.begin_energy_trace();
  const int bx = dp.precision.input_bits();
  for (int base = 0; base < kRtlWorkloadOperands;
       base += GateSimWide::kLanes) {
    const int lanes =
        std::min(GateSimWide::kLanes, kRtlWorkloadOperands - base);
    std::vector<std::int64_t> slots(static_cast<std::size_t>(lanes));
    for (int k = 0; k < lanes; ++k) {
      slots[static_cast<std::size_t>(k)] = (base + k) % dp.l;
    }
    if (dp.arch == ArchKind::kMulCim) {
      std::vector<std::vector<std::uint64_t>> inputs(
          static_cast<std::size_t>(lanes),
          std::vector<std::uint64_t>(static_cast<std::size_t>(dp.h)));
      for (int k = 0; k < lanes; ++k) {
        for (auto& in : inputs[static_cast<std::size_t>(k)]) {
          in = random_operand(rng, bx, sparsity);
        }
      }
      harness.compute_int_batch(inputs, slots);
    } else {
      const int be = dp.precision.exp_bits;
      std::vector<std::vector<std::uint64_t>> exponents(
          static_cast<std::size_t>(lanes),
          std::vector<std::uint64_t>(static_cast<std::size_t>(dp.h)));
      auto mantissas = exponents;
      for (int k = 0; k < lanes; ++k) {
        for (auto& e : exponents[static_cast<std::size_t>(k)]) {
          e = random_operand(rng, be, 0.0);
        }
        for (auto& mant : mantissas[static_cast<std::size_t>(k)]) {
          mant = random_operand(rng, bx, sparsity);
        }
      }
      harness.compute_fp_batch(exponents, mantissas, slots);
    }
  }
}

/// Folds the traced per-cycle energy and its per-group attribution into
/// @p m.  SimT is GateSim or GateSimWide; by the bit-identity contract the
/// folded numbers are the same either way.
template <typename SimT>
void fold_traced_energy(const SimT& sim, const Netlist& nl,
                        const Technology& tech, MacroMetrics& m) {
  const auto cycles = static_cast<double>(sim.traced_cycles());
  SEGA_ASSERT(cycles > 0.0);
  m.energy_gates = sim.traced_energy(tech) / cycles;
  for (std::size_t gi = 0; gi < nl.group_names().size(); ++gi) {
    const std::string& name = nl.group_names()[gi];
    if (name == "core") continue;
    m.energy_breakdown[name] =
        sim.traced_energy_of_group(tech, static_cast<int>(gi)) / cycles;
  }
}

}  // namespace

RtlCostModel::RtlCostModel(const Technology& tech, EvalConditions cond,
                           RtlCostModelOptions options)
    : ctx_(tech, cond),
      options_(options),
      engine_(resolve_engine(options.sim_engine)) {}

MacroMetrics RtlCostModel::evaluate(const DesignPoint& dp) const {
  // --- elaboration: the generated netlist is the ground truth -------------
  // The harness levelizes the netlist once; STA and the simulation engine
  // both read that topology.
  DcimHarness harness(dp);
  elaborations_.fetch_add(1, std::memory_order_relaxed);
  const Netlist& nl = harness.macro().netlist;
  const Technology& technology = tech();

  // One census pass: per group for the breakdown below, summed for the
  // whole macro.
  const std::vector<GateCount> census = nl.census_by_group();
  MacroMetrics m;
  for (const GateCount& group : census) m.gates += group;
  m.area_gates = m.gates.area(technology);
  m.cycles_per_input = dp.cycles_per_input();

  // --- delay: STA over the levelized netlist ------------------------------
  // The clock period is the worst arrival anywhere — register setup paths
  // (buffer -> select -> multiply -> tree -> accumulator) and the fused
  // outputs, which are consumed every cycle.
  m.delay_gates =
      run_sta(nl, harness.topology(), technology).critical_delay();

  // --- energy: measured switching activity over workload vectors ----------
  // Program every SRAM bit cell with a random value (covers every slot and
  // partial trailing column groups alike), then stream kRtlWorkloadOperands
  // random (sparsity-shaped) operands through the harness protocol,
  // rotating the selected slot so the weight-select path toggles too.  The
  // trace starts after programming: weight upload is a one-time cost, not
  // per-cycle compute energy.  The wide engine settles all 64 operands in
  // one lane-packed pass; the scalar engine replays them one at a time —
  // both from the same per-point seed, bit-identical by contract.
  Rng rng(workload_seed(dp));
  const double sparsity = conditions().input_sparsity;
  if (engine_ == RtlSimEngine::kWide) {
    trace_wide(harness, dp, rng, sparsity);
    fold_traced_energy(harness.wide_sim(), nl, technology, m);
  } else {
    trace_scalar(harness, dp, rng, sparsity);
    fold_traced_energy(harness.sim(), nl, technology, m);
  }

  // --- per-component breakdown (normalized, like the analytic model's) ----
  // The generator tags every cell with its component group under the same
  // names the analytic breakdown uses; "core" holds only untagged glue and
  // is not a component.  (Energy attribution was folded with the trace
  // above; area comes from the census.)
  for (std::size_t gi = 0; gi < nl.group_names().size(); ++gi) {
    const std::string& name = nl.group_names()[gi];
    if (name == "core") continue;
    m.area_breakdown[name] = census[gi].area(technology);
  }

  // --- absolute derivation -------------------------------------------------
  // Area and delay convert exactly like derive_metrics (same EvalContext
  // arithmetic).  The measured energy embodies the real activity and the
  // workload's sparsity already, so only the supply (V^2) scale applies —
  // reusing ctx_.energy_fj would derate twice.
  m.area_um2 = ctx_.area_um2(m.area_gates);
  m.area_mm2 = m.area_um2 * 1e-6;
  m.delay_ns = ctx_.delay_ns(m.delay_gates);
  SEGA_ASSERT(m.delay_ns > 0.0);
  m.freq_ghz = 1.0 / m.delay_ns;
  EvalConditions supply_only;
  supply_only.supply_v = conditions().supply_v;
  supply_only.input_sparsity = 0.0;
  supply_only.activity = 1.0;
  m.energy_per_cycle_fj = technology.energy_fj(m.energy_gates, supply_only);
  m.power_w = m.energy_per_cycle_fj * 1e-15 / (m.delay_ns * 1e-9);
  m.energy_per_mvm_nj = m.energy_per_cycle_fj *
                        static_cast<double>(m.cycles_per_input) * 1e-6;

  // Throughput (Table V/VI form, with the measured clock period).
  const double macs_per_cycle =
      static_cast<double>(dp.n) * static_cast<double>(dp.h) /
      (static_cast<double>(dp.precision.weight_bits()) *
       static_cast<double>(m.cycles_per_input));
  const double ops_per_s = 2.0 * macs_per_cycle / (m.delay_ns * 1e-9);
  m.throughput_tops = ops_per_s * 1e-12;
  m.tops_per_w = m.throughput_tops / m.power_w;
  m.tops_per_mm2 = m.throughput_tops / m.area_mm2;

  // --- layout/interconnect stage (optional) --------------------------------
  // Extraction over the *placed elaborated netlist* — the same macro the
  // measurement ran on, floorplanned by layout/floorplan.  Wire switching
  // is the analytic estimate through ctx_ (routing toggles are not traced
  // by the gate-level sim), so both backends fold the identical wire-energy
  // term and their divergence stays a gate-level quantity.
  if (options_.layout) {
    apply_layout_cost(estimate_layout_cost(ctx_, harness.macro()), &m);
  }
  return m;
}

void RtlCostModel::evaluate_batch(Span<const DesignPoint> points,
                                  Span<MacroMetrics> out) const {
  SEGA_EXPECTS(points.size() == out.size());
  const std::size_t n = points.size();
  if (n == 0) return;
  if (n == 1) {
    out[0] = evaluate(points[0]);
    return;
  }
  // Each point's measurement is self-seeded and independent, so the batch
  // fans out per point; per-index slots keep results bit-identical to the
  // serial loop under any schedule.  Nested calls (a sweep cell already on
  // the pool) run inline serially via the pool's reentrancy contract.
  const auto measure = [&](std::size_t i) { out[i] = evaluate(points[i]); };
  if (options_.threads == 1 || ThreadPool::inside_pool_task()) {
    // Serial by request, or already on a pool worker (nested fan-out would
    // run inline anyway — skip building a private pool for nothing).
    for (std::size_t i = 0; i < n; ++i) measure(i);
    return;
  }
  if (options_.threads > 1) {
    ThreadPool pool(options_.threads);
    pool.parallel_for(n, measure);
    return;
  }
  ThreadPool::global().parallel_for(n, measure);
}

}  // namespace sega
