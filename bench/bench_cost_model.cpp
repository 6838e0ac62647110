// Microbenchmarks of the estimation models (Tables II-VI) and the
// generation path — the costs that bound the compiler's interactive loop.
//
// BM_CostModelBatched times AnalyticCostModel::evaluate_batch at batch sizes
// 1/64/1024 for INT8/FP16/FP32, the call every explorer makes;
// BM_EvaluateMacro* time one point through evaluate_macro.  Throughput is
// reported as items_per_second (design points evaluated per second);
// results land in the CI bench-smoke JSON artifacts.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "arch/space.h"
#include "cost/calibrate.h"
#include "cost/cost_cache.h"
#include "cost/cost_model.h"
#include "cost/layout_cost.h"
#include "cost/rtl_cost_model.h"
#include "layout/floorplan.h"
#include "layout/wirelength.h"
#include "rtl/harness.h"
#include "rtl/macro_builder.h"
#include "rtl/sta.h"
#include "rtl/verilog.h"
#include "util/rng.h"

namespace {

using namespace sega;

DesignPoint fig6(const char* precision_name) {
  DesignPoint dp;
  dp.precision = *precision_from_name(precision_name);
  dp.arch = arch_for(dp.precision);
  dp.n = 32;
  dp.h = 128;
  dp.l = 16;
  dp.k = 8;
  return dp;
}

/// A realistic batch: the valid design points of one (Wstore, precision)
/// space, cycled to the requested size — the shape of the chunks NSGA-II and
/// the sweep grid submit.
std::vector<DesignPoint> batch_of(const char* precision_name,
                                  std::size_t size) {
  const DesignSpace space(1 << 13, *precision_from_name(precision_name));
  const auto all = space.enumerate_all();
  std::vector<DesignPoint> batch;
  batch.reserve(size);
  for (std::size_t i = 0; i < size; ++i) batch.push_back(all[i % all.size()]);
  return batch;
}

void BM_CostModelBatched(benchmark::State& state, const char* precision_name) {
  const Technology tech = Technology::tsmc28();
  const AnalyticCostModel model(tech);
  const auto batch = batch_of(precision_name,
                              static_cast<std::size_t>(state.range(0)));
  std::vector<MacroMetrics> out(batch.size());
  for (auto _ : state) {
    model.evaluate_batch(Span<const DesignPoint>(batch),
                         Span<MacroMetrics>(out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}

BENCHMARK_CAPTURE(BM_CostModelBatched, INT8, "INT8")
    ->Arg(1)->Arg(64)->Arg(1024);
BENCHMARK_CAPTURE(BM_CostModelBatched, FP16, "FP16")
    ->Arg(1)->Arg(64)->Arg(1024);
BENCHMARK_CAPTURE(BM_CostModelBatched, FP32, "FP32")
    ->Arg(1)->Arg(64)->Arg(1024);

/// Checked variant: asserts batched == scalar bit-for-bit on every pass, so
/// the benchmark itself guards the bit-exactness contract it measures.
void BM_CostModelBatchedChecked(benchmark::State& state) {
  const Technology tech = Technology::tsmc28();
  const AnalyticCostModel model(tech);
  const auto batch = batch_of("FP16", 64);
  std::vector<MacroMetrics> out(batch.size());
  for (auto _ : state) {
    model.evaluate_batch(Span<const DesignPoint>(batch),
                         Span<MacroMetrics>(out));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const MacroMetrics ref = evaluate_macro(tech, batch[i]);
      if (out[i].area_mm2 != ref.area_mm2 || out[i].delay_ns != ref.delay_ns ||
          out[i].energy_per_mvm_nj != ref.energy_per_mvm_nj ||
          out[i].throughput_tops != ref.throughput_tops) {
        state.SkipWithError("batched evaluation diverged from scalar");
        return;
      }
    }
  }
}
BENCHMARK(BM_CostModelBatchedChecked);

/// Distinct valid points across the three validate-grid precisions — the
/// calibration fitter rejects duplicate-only corpora, so unlike batch_of
/// this never cycles.
std::vector<DesignPoint> calibration_corpus_points(std::size_t size) {
  std::vector<DesignPoint> points;
  for (const char* name : {"INT8", "FP16", "FP32"}) {
    const DesignSpace space(1 << 13, *precision_from_name(name));
    for (const DesignPoint& dp : space.enumerate_all()) {
      if (points.size() >= size) return points;
      points.push_back(dp);
    }
  }
  return points;
}

/// The `validate --calibrate` hot step: one-column least-squares module
/// factors + minimax scales + the per-metric envelope guard, over a
/// measured corpus (synthesized here from a planted calibration so the fit
/// always converges).  Corpus sizes bracket the real knee grids (3 = the
/// default validate grid, 64 = a full sweep's worth of knees).
void BM_CalibrationFit(benchmark::State& state) {
  const Technology tech = Technology::tsmc28();
  const EvalConditions cond;
  Calibration planted;
  planted.area_factor[0] = 1.23;
  planted.energy_factor[1] = 0.64;
  planted.delay_scale = 0.71;
  planted.energy_scale = 1.09;
  const AnalyticCostModel measured(
      tech, cond, std::make_shared<const Calibration>(planted));
  std::vector<CalibrationSample> corpus;
  for (const DesignPoint& dp :
       calibration_corpus_points(static_cast<std::size_t>(state.range(0)))) {
    corpus.push_back(CalibrationSample{dp, measured.evaluate(dp)});
  }
  std::string error;
  for (auto _ : state) {
    auto fit = fit_calibration(tech, cond, corpus, &error);
    if (!fit.has_value()) {
      state.SkipWithError(error.c_str());
      return;
    }
    benchmark::DoNotOptimize(fit);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(corpus.size()));
}
BENCHMARK(BM_CalibrationFit)->Arg(3)->Arg(64);

/// Calibrated evaluation throughput, directly comparable to the
/// uncalibrated BM_CostModelBatched/INT8 rows: the per-module factors and
/// trailing scales ride the one derivation, so calibration must cost a few
/// multiplies per point, not a second derivation.
void BM_CalibrationEvalBatched(benchmark::State& state) {
  const Technology tech = Technology::tsmc28();
  const EvalConditions cond;
  Calibration cal;
  cal.area_factor[0] = 1.23;
  cal.energy_factor[1] = 0.64;
  cal.delay_scale = 0.71;
  cal.energy_scale = 1.09;
  const AnalyticCostModel model(tech, cond,
                                std::make_shared<const Calibration>(cal));
  const auto batch = batch_of("INT8", static_cast<std::size_t>(state.range(0)));
  std::vector<MacroMetrics> out(batch.size());
  for (auto _ : state) {
    model.evaluate_batch(Span<const DesignPoint>(batch),
                         Span<MacroMetrics>(out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_CalibrationEvalBatched)->Arg(1)->Arg(64)->Arg(1024);

void BM_EvaluateMacroInt(benchmark::State& state) {
  const Technology tech = Technology::tsmc28();
  const DesignPoint dp = fig6("INT8");
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate_macro(tech, dp));
  }
}
BENCHMARK(BM_EvaluateMacroInt);

void BM_EvaluateMacroFp(benchmark::State& state) {
  const Technology tech = Technology::tsmc28();
  const DesignPoint dp = fig6("BF16");
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate_macro(tech, dp));
  }
}
BENCHMARK(BM_EvaluateMacroFp);

void BM_BuildMacroNetlist(benchmark::State& state) {
  DesignPoint dp = fig6("INT8");
  dp.h = static_cast<std::int64_t>(state.range(0));
  dp.l = 8192 * 8 / (dp.n * dp.h);  // keep Wstore fixed at 8K
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_dcim_macro(dp));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildMacroNetlist)->Arg(16)->Arg(32)->Arg(64)->Complexity();

void BM_WriteVerilog(benchmark::State& state) {
  DesignPoint dp = fig6("INT8");
  dp.h = 16;
  dp.l = 32;
  const DcimMacro macro = build_dcim_macro(dp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(write_verilog(macro.netlist));
  }
}
BENCHMARK(BM_WriteVerilog);

void BM_Floorplan(benchmark::State& state) {
  const Technology tech = Technology::tsmc28();
  DesignPoint dp = fig6("INT8");
  dp.h = 16;
  dp.l = 32;
  const DcimMacro macro = build_dcim_macro(dp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(floorplan_macro(tech, macro));
  }
}
BENCHMARK(BM_Floorplan);

// Floorplan plus HPWL — the two layout-stage steps after elaboration — on
// BM_LayoutStage's macro, elaborated once outside the loop.
void BM_FloorplanHpwl(benchmark::State& state) {
  const Technology tech = Technology::tsmc28();
  DesignPoint dp = fig6("INT8");
  dp.h = 16;
  dp.l = 32;
  const DcimMacro macro = build_dcim_macro(dp);
  for (auto _ : state) {
    const MacroLayout layout = floorplan_macro(tech, macro);
    benchmark::DoNotOptimize(estimate_wirelength(layout, macro.netlist));
  }
}
BENCHMARK(BM_FloorplanHpwl);

// Static timing of the macro BM_Floorplan places: levelize, then propagate
// arrival times — the delay measurement of every RTL evaluation.
void BM_RunSta(benchmark::State& state) {
  const Technology tech = Technology::tsmc28();
  DesignPoint dp = fig6("INT8");
  dp.h = 16;
  dp.l = 32;
  const DcimMacro macro = build_dcim_macro(dp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_sta(macro.netlist, tech));
  }
}
BENCHMARK(BM_RunSta);

// One full layout/interconnect stage per iteration — build + floorplan +
// HPWL + parasitic fold, i.e. the per-point premium `--layout` adds on top
// of an analytic evaluation (compare BM_EvaluateMacroInt).
void BM_LayoutStage(benchmark::State& state) {
  const Technology tech = Technology::tsmc28();
  const EvalContext ctx(tech, EvalConditions{});
  DesignPoint dp = fig6("INT8");
  dp.h = 16;
  dp.l = 32;
  for (auto _ : state) {
    MacroMetrics m = evaluate_macro(tech, dp);
    apply_layout_cost(estimate_layout_cost(ctx, build_dcim_macro(dp)), &m);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_LayoutStage);

// --- the measured backend ---------------------------------------------------
// One full RtlCostModel evaluation (elaborate + STA + workload simulation)
// per iteration: the per-point price of ground truth, and the number the
// validate command's runtime scales with.  Compare against
// BM_EvaluateMacroInt above for the analytic-vs-measured cost gap.
void BM_RtlCostModelPoint(benchmark::State& state, const char* precision_name,
                          std::int64_t n, std::int64_t h, std::int64_t l,
                          std::int64_t k) {
  const Technology tech = Technology::tsmc28();
  const RtlCostModel model(tech);
  DesignPoint dp;
  dp.precision = *precision_from_name(precision_name);
  dp.arch = arch_for(dp.precision);
  dp.n = n;
  dp.h = h;
  dp.l = l;
  dp.k = k;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.evaluate(dp));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_RtlCostModelPoint, INT4_small, "INT4", 16, 16, 4, 2);
BENCHMARK_CAPTURE(BM_RtlCostModelPoint, INT8_mid, "INT8", 32, 64, 4, 8);
BENCHMARK_CAPTURE(BM_RtlCostModelPoint, FP8_small, "FP8", 16, 4, 2, 4);

// --- lane-packed energy tracing --------------------------------------------
// The same 64-operand workload trace through the scalar GateSim protocol
// (one settle pass per operand) and the 64-lane GateSimWide batch (one
// settle pass for the whole block).  items_per_second is operands traced
// per second; the Wide/Scalar ratio is the lane-packing speedup the RTL
// cost model's energy measurement rides on.
struct TraceWorkload {
  DcimHarness harness;
  std::vector<std::vector<std::uint64_t>> operands;
  std::vector<std::int64_t> slots;

  explicit TraceWorkload(const DesignPoint& dp, int n_ops) : harness(dp) {
    Rng rng(7);
    const int bw = dp.precision.weight_bits();
    const int bx = dp.precision.input_bits();
    for (std::int64_t slot = 0; slot < dp.l; ++slot) {
      std::vector<std::vector<std::uint64_t>> weights(
          static_cast<std::size_t>(harness.macro().groups),
          std::vector<std::uint64_t>(static_cast<std::size_t>(dp.h)));
      for (auto& g : weights) {
        for (auto& w : g) {
          w = static_cast<std::uint64_t>(
              rng.uniform_int(0, (std::int64_t{1} << bw) - 1));
        }
      }
      harness.load_weights(weights, slot);
    }
    for (int op = 0; op < n_ops; ++op) {
      operands.emplace_back(static_cast<std::size_t>(dp.h));
      for (auto& v : operands.back()) {
        v = static_cast<std::uint64_t>(
            rng.uniform_int(0, (std::int64_t{1} << bx) - 1));
      }
      slots.push_back(op % dp.l);
    }
  }
};

DesignPoint int4_small() {
  DesignPoint dp;
  dp.precision = *precision_from_name("INT4");
  dp.arch = ArchKind::kMulCim;
  dp.n = 16;
  dp.h = 16;
  dp.l = 4;
  dp.k = 2;
  return dp;
}

void BM_GateSimScalarTrace(benchmark::State& state) {
  TraceWorkload wl(int4_small(), 64);
  GateSim& sim = wl.harness.sim();
  for (auto _ : state) {
    sim.begin_energy_trace();
    for (std::size_t op = 0; op < wl.operands.size(); ++op) {
      benchmark::DoNotOptimize(
          wl.harness.compute_int(wl.operands[op], wl.slots[op]));
    }
    benchmark::DoNotOptimize(sim.traced_cycles());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(wl.operands.size()));
}
BENCHMARK(BM_GateSimScalarTrace);

void BM_GateSimWideTrace(benchmark::State& state) {
  TraceWorkload wl(int4_small(), 64);
  GateSimWide& sim = wl.harness.wide_sim();
  for (auto _ : state) {
    sim.begin_energy_trace();
    benchmark::DoNotOptimize(
        wl.harness.compute_int_batch(wl.operands, wl.slots));
    benchmark::DoNotOptimize(sim.traced_cycles());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(wl.operands.size()));
}
BENCHMARK(BM_GateSimWideTrace);

/// Checked variant: every pass traces the workload through both engines and
/// asserts outputs, per-kind toggle counts and traced cycles bit-equal —
/// the benchmark itself guards the bit-identity contract it measures.
void BM_GateSimWideTraceChecked(benchmark::State& state) {
  TraceWorkload wl(int4_small(), 64);
  GateSim& scalar = wl.harness.sim();
  GateSimWide& wide = wl.harness.wide_sim();
  for (auto _ : state) {
    scalar.begin_energy_trace();
    std::vector<std::vector<std::uint64_t>> ref;
    for (std::size_t op = 0; op < wl.operands.size(); ++op) {
      ref.push_back(wl.harness.compute_int(wl.operands[op], wl.slots[op]));
    }
    wide.begin_energy_trace();
    const auto out = wl.harness.compute_int_batch(wl.operands, wl.slots);
    if (out != ref || wide.toggle_counts() != scalar.toggle_counts() ||
        wide.traced_cycles() != scalar.traced_cycles()) {
      state.SkipWithError("lane-packed trace diverged from scalar");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(wl.operands.size()));
}
BENCHMARK(BM_GateSimWideTraceChecked);

// A warm persistent memo turns the same evaluation into a table lookup —
// the reason validate reruns are free.
void BM_RtlCostModelMemoHit(benchmark::State& state) {
  const Technology tech = Technology::tsmc28();
  const RtlCostModel model(tech);
  CostCache cache(model);
  DesignPoint dp;
  dp.precision = *precision_from_name("INT4");
  dp.arch = ArchKind::kMulCim;
  dp.n = 16;
  dp.h = 16;
  dp.l = 4;
  dp.k = 2;
  cache.evaluate(dp);  // pay the elaboration once
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.evaluate(dp));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RtlCostModelMemoHit);

}  // namespace
