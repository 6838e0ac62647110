// RtlCostModel — the measured backend: netlist-census area, STA delay,
// gate-sim energy; bit-exact determinism at any thread count; persistent
// memo composition with zero warm elaborations; backend fingerprint
// separation; and the productized analytic-vs-RTL knee validation that
// supersedes the ad-hoc spot checks of test_model_rtl_consistency.
#include "cost/rtl_cost_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "compiler/validate.h"
#include "cost/cost_cache.h"
#include "test_support.h"

namespace sega {
namespace {

using test::expect_same_metrics;
using test::int8_point;

DesignPoint int4_point() {
  DesignPoint dp;
  dp.precision = *precision_from_name("INT4");
  dp.arch = ArchKind::kMulCim;
  dp.n = 16;
  dp.h = 16;
  dp.l = 4;
  dp.k = 2;
  return dp;
}

DesignPoint fp8_point() {
  DesignPoint dp;
  dp.precision = *precision_from_name("FP8");
  dp.arch = ArchKind::kFpCim;
  dp.n = 16;
  dp.h = 4;
  dp.l = 2;
  dp.k = 4;
  return dp;
}

TEST(RtlCostModelTest, MeasuresTheNetlistNotTheClosedForms) {
  // A power-of-two geometry where the analytic census is exact (the
  // test_model_rtl_consistency contract): the measured model must count the
  // identical cells, meter a critical path inside the analytic envelope,
  // and trace energy under the activity=1 bound.
  const Technology tech = Technology::tsmc28();
  const DesignPoint dp = int4_point();
  const RtlCostModel rtl(tech);
  const AnalyticCostModel analytic(tech);
  const MacroMetrics m = rtl.evaluate(dp);
  const MacroMetrics a = analytic.evaluate(dp);

  // Area: same census; the totals agree to FP-summation-order noise (the
  // analytic side folds per module, the census side per cell kind).
  EXPECT_TRUE(m.gates == a.gates)
      << "rtl " << m.gates.to_string() << "\nmodel " << a.gates.to_string();
  EXPECT_NEAR(m.area_gates, a.area_gates, a.area_gates * 1e-12);
  EXPECT_NEAR(m.area_mm2, a.area_mm2, a.area_mm2 * 1e-12);

  // Delay: STA of the real netlist — positive, no slower than the model's
  // clock-period envelope, and not absurdly faster (the forms are at most
  // a few x conservative; see test_rtl_sta).
  EXPECT_GT(m.delay_gates, 0.0);
  EXPECT_LE(m.delay_gates, a.delay_gates + 1e-9);
  EXPECT_GE(m.delay_gates, a.delay_gates / 3.0);
  EXPECT_DOUBLE_EQ(m.freq_ghz, 1.0 / m.delay_ns);

  // Energy: measured switching sits strictly inside (0, census bound).
  EXPECT_GT(m.energy_gates, 0.0);
  EXPECT_LT(m.energy_gates, a.energy_gates);

  // Shared geometry facts.
  EXPECT_EQ(m.cycles_per_input, a.cycles_per_input);
  EXPECT_GT(m.throughput_tops, 0.0);
  EXPECT_GT(m.tops_per_w, 0.0);
}

TEST(RtlCostModelTest, FpMacroMeasuresBothArchitectureTemplates) {
  const Technology tech = Technology::tsmc28();
  const RtlCostModel rtl(tech);
  const AnalyticCostModel analytic(tech);
  const MacroMetrics m = rtl.evaluate(fp8_point());
  const MacroMetrics a = analytic.evaluate(fp8_point());
  // The FP-CIM-only components appear in the measured breakdown too.
  EXPECT_TRUE(m.area_breakdown.count("pre_alignment"));
  EXPECT_TRUE(m.area_breakdown.count("int_to_fp"));
  EXPECT_GT(m.energy_gates, 0.0);
  EXPECT_LT(m.energy_gates, a.energy_gates);
  EXPECT_GT(m.delay_gates, 0.0);
  EXPECT_LE(m.delay_gates, a.delay_gates + 1e-9);
}

TEST(RtlCostModelTest, BreakdownsAreConsistentWithTotals) {
  const Technology tech = Technology::tsmc28();
  const RtlCostModel rtl(tech);
  for (const DesignPoint& dp : {int4_point(), fp8_point()}) {
    const MacroMetrics m = rtl.evaluate(dp);
    double area_sum = 0.0;
    double energy_sum = 0.0;
    for (const auto& [name, v] : m.area_breakdown) {
      EXPECT_GE(v, 0.0) << name;
      area_sum += v;
    }
    for (const auto& [name, v] : m.energy_breakdown) {
      EXPECT_GE(v, 0.0) << name;
      energy_sum += v;
    }
    // The groups partition the netlist up to untagged "core" glue: sums
    // must never exceed the totals and must carry nearly all of them.
    EXPECT_LE(area_sum, m.area_gates + 1e-9);
    EXPECT_GE(area_sum, m.area_gates * 0.95);
    EXPECT_LE(energy_sum, m.energy_gates + 1e-9);
    EXPECT_GE(energy_sum, m.energy_gates * 0.5);
  }
}

TEST(RtlCostModelTest, BitExactAcrossThreadCountsBatchSplitsAndInstances) {
  // The acceptance contract: measurements are a pure function of the
  // design point — identical serially, at 8 threads, across separate model
  // instances, and for any batch composition.
  const Technology tech = Technology::tsmc28();
  std::vector<DesignPoint> points = {int4_point(), fp8_point(),
                                     int8_point(32, 4, 1, 8),
                                     int8_point(16, 8, 2, 4)};
  DesignPoint pipelined = int4_point();
  pipelined.pipelined_tree = true;
  points.push_back(pipelined);

  RtlCostModelOptions serial_opts;
  serial_opts.threads = 1;
  const RtlCostModel serial(tech, {}, serial_opts);
  std::vector<MacroMetrics> reference(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    reference[i] = serial.evaluate(points[i]);
  }

  RtlCostModelOptions parallel_opts;
  parallel_opts.threads = 8;
  const RtlCostModel parallel(tech, {}, parallel_opts);
  std::vector<MacroMetrics> batched(points.size());
  parallel.evaluate_batch(Span<const DesignPoint>(points),
                          Span<MacroMetrics>(batched));
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_same_metrics(batched[i], reference[i]);
  }

  // Split batches on a fresh instance: same bits again.
  const RtlCostModel fresh(tech, {}, parallel_opts);
  std::vector<MacroMetrics> split(points.size());
  fresh.evaluate_batch(Span<const DesignPoint>(points.data(), 2),
                       Span<MacroMetrics>(split.data(), 2));
  fresh.evaluate_batch(
      Span<const DesignPoint>(points.data() + 2, points.size() - 2),
      Span<MacroMetrics>(split.data() + 2, points.size() - 2));
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_same_metrics(split[i], reference[i]);
  }
}

TEST(RtlCostModelTest, ConditionsShapeTheMeasurement) {
  const Technology tech = Technology::tsmc28();
  const DesignPoint dp = int4_point();
  const RtlCostModel nominal(tech);

  // Input sparsity zeroes workload bits: strictly less switching.
  EvalConditions sparse;
  sparse.input_sparsity = 0.5;
  const RtlCostModel sparse_model(tech, sparse);
  const MacroMetrics m_dense = nominal.evaluate(dp);
  const MacroMetrics m_sparse = sparse_model.evaluate(dp);
  EXPECT_LT(m_sparse.energy_gates, m_dense.energy_gates);
  EXPECT_GT(m_sparse.energy_gates, 0.0);
  // Sparsity shapes the workload, not the netlist.
  EXPECT_EQ(m_sparse.area_gates, m_dense.area_gates);
  EXPECT_EQ(m_sparse.delay_gates, m_dense.delay_gates);

  // Supply scaling applies to the absolute conversions exactly as the
  // technology defines: alpha-power delay, V^2 energy.
  EvalConditions low;
  low.supply_v = 0.6;
  const RtlCostModel scaled(tech, low);
  const MacroMetrics m_low = scaled.evaluate(dp);
  EXPECT_EQ(m_low.delay_gates, m_dense.delay_gates);
  EXPECT_EQ(m_low.energy_gates, m_dense.energy_gates);
  EXPECT_NEAR(m_low.delay_ns, m_dense.delay_ns * (0.9 / 0.6),
              m_dense.delay_ns * 1e-12);
  EXPECT_NEAR(m_low.energy_per_cycle_fj,
              m_dense.energy_per_cycle_fj * (0.6 / 0.9) * (0.6 / 0.9),
              m_dense.energy_per_cycle_fj * 1e-12);
}

TEST(RtlCostModelTest, PersistentMemoServesWarmRunsWithZeroElaborations) {
  const Technology tech = Technology::tsmc28();
  test::ScopedTempDir dir("sega_rtl_cost_model");
  const std::string memo = dir.file("rtl.memo.jsonl");
  const std::vector<DesignPoint> points = {int4_point(), fp8_point(),
                                           int8_point(32, 4, 1, 8)};

  const RtlCostModel cold_model(tech);
  CostCache cold(cold_model);
  std::vector<MacroMetrics> first(points.size());
  cold.evaluate_batch(Span<const DesignPoint>(points),
                      Span<MacroMetrics>(first));
  EXPECT_EQ(cold_model.elaborations(), points.size());
  ASSERT_TRUE(cold.save(memo));

  // Warm process: the memo serves everything — zero elaborations, zero
  // misses, bit-exact metrics.
  const RtlCostModel warm_model(tech);
  CostCache warm(warm_model);
  std::string error;
  ASSERT_TRUE(warm.load(memo, &error)) << error;
  std::vector<MacroMetrics> replay(points.size());
  warm.evaluate_batch(Span<const DesignPoint>(points),
                      Span<MacroMetrics>(replay));
  EXPECT_EQ(warm_model.elaborations(), 0u);
  EXPECT_EQ(warm.misses(), 0u);
  EXPECT_EQ(warm.hits(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_same_metrics(replay[i], first[i]);
  }
}

TEST(ValidateSpecTest, JsonRoundTripsAndRejectsBadKeys) {
  ValidateSpec spec;
  spec.sweep.wstores = {512, 1024};
  spec.sweep.dse.seed = 9;
  spec.tolerance = 0.5;
  spec.rtl_cache_file = "rtl.memo";
  const auto back = ValidateSpec::from_json(spec.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->to_json().dump(), spec.to_json().dump());
  EXPECT_EQ(back->sweep.wstores, spec.sweep.wstores);
  EXPECT_DOUBLE_EQ(back->tolerance, 0.5);
  EXPECT_EQ(back->rtl_cache_file, "rtl.memo");

  // Defaults: the small validate grid, not the full §IV grid.
  const auto empty = ValidateSpec::from_json(*Json::parse("{}"));
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->sweep.wstores, ValidateSpec{}.sweep.wstores);
  EXPECT_EQ(empty->sweep.precisions.size(), 3u);

  std::string error;
  EXPECT_FALSE(ValidateSpec::from_json(*Json::parse(R"({"tolerance": 0})"),
                                       &error)
                   .has_value());
  EXPECT_FALSE(
      ValidateSpec::from_json(*Json::parse(R"({"cost_model": "rtl"})"),
                              &error)
          .has_value());
  EXPECT_NE(error.find("cost_model"), std::string::npos);
  EXPECT_FALSE(
      ValidateSpec::from_json(*Json::parse(R"({"rtl_cache_file": 3})"))
          .has_value());
}

TEST(RtlCostModelTest, KneeDivergenceWithinToleranceAcrossPrecisions) {
  // The productized cross-validation at INT8 / FP16 / FP32 knee points:
  // area within tolerance, STA delay and measured energy inside the
  // analytic envelope, throughput at least the analytic promise.
  const Compiler compiler(Technology::tsmc28());
  test::ScopedTempDir dir("sega_rtl_validate");
  ValidateSpec spec;
  spec.sweep.wstores = {512};
  spec.sweep.precisions = {precision_int8(), precision_fp16(),
                           precision_fp32()};
  spec.sweep.dse.population = 16;
  spec.sweep.dse.generations = 8;
  spec.sweep.dse.seed = 2;
  spec.tolerance = 0.25;
  spec.rtl_cache_file = dir.file("validate.rtl.memo");

  std::string error;
  const ValidateReport report = run_validate(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(report.rows.size(), 3u);
  EXPECT_TRUE(report.pass()) << report.render();
  EXPECT_EQ(report.rtl_cache_misses, 3u);
  for (const auto& row : report.rows) {
    EXPECT_LE(row.area_rel_err, spec.tolerance) << row.precision.name;
    EXPECT_GT(row.delay_ratio, 0.0) << row.precision.name;
    EXPECT_LE(row.delay_ratio, 1.0 + spec.tolerance) << row.precision.name;
    EXPECT_GT(row.energy_ratio, 0.0) << row.precision.name;
    EXPECT_LE(row.energy_ratio, 1.0 + spec.tolerance) << row.precision.name;
    EXPECT_GE(row.throughput_ratio, 1.0 / (1.0 + spec.tolerance))
        << row.precision.name;
  }

  // Warm rerun: every knee comes from the RTL memo — zero elaborations —
  // and the report is identical.
  const ValidateReport warm = run_validate(compiler, spec, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(warm.rtl_elaborations, 0u);
  EXPECT_EQ(warm.rtl_cache_misses, 0u);
  EXPECT_EQ(warm.to_json().dump(2), report.to_json().dump(2));
  EXPECT_EQ(warm.to_csv(), report.to_csv());

  // An unreachable tolerance flips the verdict without erroring.
  ValidateSpec strict = spec;
  strict.tolerance = 1e-6;
  const ValidateReport failing = run_validate(compiler, strict, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_FALSE(failing.pass());
  EXPECT_EQ(failing.failures(), failing.rows.size());
}

TEST(RtlCostModelTest, ValidateEnergyGateHoldsUnderSparsityDerating) {
  // The energy gate compares against the activity=1/sparsity=0 envelope,
  // not the derated analytic value: at high input sparsity the analytic
  // side derates by (1 - sparsity) while measured toggles shrink far less,
  // so gating on the derated value would spuriously fail.  The same knee
  // must pass at sparsity 0 and 0.9.
  const Compiler compiler(Technology::tsmc28());
  for (const double sparsity : {0.0, 0.9}) {
    ValidateSpec spec;
    spec.sweep.wstores = {512};
    spec.sweep.precisions = {precision_int8()};
    spec.sweep.eval.conditions.input_sparsity = sparsity;
    spec.sweep.dse.population = 16;
    spec.sweep.dse.generations = 8;
    spec.sweep.dse.seed = 2;
    spec.tolerance = 0.25;
    std::string error;
    const ValidateReport report = run_validate(compiler, spec, &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(report.rows.size(), 1u);
    EXPECT_TRUE(report.pass())
        << "sparsity " << sparsity << "\n" << report.render();
    EXPECT_GT(report.rows[0].energy_ratio, 0.0);
    EXPECT_LE(report.rows[0].energy_ratio, 1.0 + spec.tolerance)
        << "sparsity " << sparsity;
  }
}

}  // namespace
}  // namespace sega
