#include "cost/cost_model.h"

#include <gtest/gtest.h>

#include "arch/space.h"

namespace sega {
namespace {

/// Full bitwise comparison of two evaluations — every scalar EXPECT_EQ on
/// doubles, plus the census and the breakdown maps.  The batched engine's
/// contract is bit-identity with the scalar reference, not approximate
/// agreement.
void expect_bitwise_equal(const MacroMetrics& a, const MacroMetrics& b) {
  EXPECT_EQ(a.gates, b.gates);
  EXPECT_EQ(a.area_gates, b.area_gates);
  EXPECT_EQ(a.delay_gates, b.delay_gates);
  EXPECT_EQ(a.energy_gates, b.energy_gates);
  EXPECT_EQ(a.area_um2, b.area_um2);
  EXPECT_EQ(a.area_mm2, b.area_mm2);
  EXPECT_EQ(a.delay_ns, b.delay_ns);
  EXPECT_EQ(a.freq_ghz, b.freq_ghz);
  EXPECT_EQ(a.energy_per_cycle_fj, b.energy_per_cycle_fj);
  EXPECT_EQ(a.power_w, b.power_w);
  EXPECT_EQ(a.energy_per_mvm_nj, b.energy_per_mvm_nj);
  EXPECT_EQ(a.throughput_tops, b.throughput_tops);
  EXPECT_EQ(a.tops_per_w, b.tops_per_w);
  EXPECT_EQ(a.tops_per_mm2, b.tops_per_mm2);
  EXPECT_EQ(a.cycles_per_input, b.cycles_per_input);
  EXPECT_EQ(a.area_breakdown, b.area_breakdown);
  EXPECT_EQ(a.energy_breakdown, b.energy_breakdown);
}

EvalConditions paper_conditions() {
  EvalConditions cond;
  cond.supply_v = 0.8;
  cond.input_sparsity = 0.1;
  cond.activity = 0.7;
  return cond;
}

TEST(EvalContextTest, ConversionsMatchTechnologyBitExactly) {
  for (const Technology& tech :
       {Technology::tsmc28(), Technology::generic40()}) {
    for (const EvalConditions& cond : {EvalConditions{}, paper_conditions()}) {
      const EvalContext ctx(tech, cond);
      for (const double gates :
           {0.0, 1.0, 3.7, 1234.5, 7.25e6, 1.0e9, 0.3333333333333333}) {
        EXPECT_EQ(ctx.area_um2(gates), tech.area_um2(gates));
        EXPECT_EQ(ctx.delay_ns(gates), tech.delay_ns(gates, cond));
        EXPECT_EQ(ctx.energy_fj(gates), tech.energy_fj(gates, cond));
      }
    }
  }
}

TEST(CostModelTest, ScalarEvaluateMatchesEvaluateMacro) {
  const Technology tech = Technology::tsmc28();
  const EvalConditions cond = paper_conditions();
  const AnalyticCostModel model(tech, cond);
  for (const char* name : {"INT4", "INT8", "FP16", "FP32"}) {
    const DesignSpace space(1 << 13, *precision_from_name(name));
    for (const DesignPoint& dp : space.enumerate_all()) {
      expect_bitwise_equal(model.evaluate(dp), evaluate_macro(tech, dp, cond));
    }
  }
}

TEST(CostModelTest, BatchedEvaluationIsBitIdenticalToScalar) {
  const Technology tech = Technology::tsmc28();
  for (const EvalConditions& cond : {EvalConditions{}, paper_conditions()}) {
    const AnalyticCostModel model(tech, cond);
    for (const char* name : {"INT2", "INT8", "INT16", "FP8", "BF16", "FP32"}) {
      const DesignSpace space(1 << 13, *precision_from_name(name));
      const auto points = space.enumerate_all();
      if (points.empty()) continue;
      std::vector<MacroMetrics> batched(points.size());
      model.evaluate_batch(Span<const DesignPoint>(points),
                           Span<MacroMetrics>(batched));
      for (std::size_t i = 0; i < points.size(); ++i) {
        expect_bitwise_equal(batched[i], evaluate_macro(tech, points[i], cond));
      }
    }
  }
}

TEST(CostModelTest, BatchHandlesMixedPrecisionsAndArchitectures) {
  const Technology tech = Technology::tsmc28();
  const AnalyticCostModel model(tech);
  // Interleave MUL-CIM and FP-CIM points so the batch path exercises both
  // census flavours (and the FP-only components) within one call.
  std::vector<DesignPoint> points;
  const DesignSpace int_space(1 << 13, precision_int8());
  const DesignSpace fp_space(1 << 13, precision_bf16());
  const auto ints = int_space.enumerate_all();
  const auto fps = fp_space.enumerate_all();
  ASSERT_FALSE(ints.empty());
  ASSERT_FALSE(fps.empty());
  for (std::size_t i = 0; i < 64; ++i) {
    points.push_back(ints[i % ints.size()]);
    points.push_back(fps[i % fps.size()]);
  }
  std::vector<MacroMetrics> batched(points.size());
  model.evaluate_batch(Span<const DesignPoint>(points),
                       Span<MacroMetrics>(batched));
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_bitwise_equal(batched[i], evaluate_macro(tech, points[i]));
  }
}

TEST(CostModelTest, BatchOfOneAndEmptyBatchAreSafe) {
  const Technology tech = Technology::tsmc28();
  const AnalyticCostModel model(tech);
  model.evaluate_batch(Span<const DesignPoint>(), Span<MacroMetrics>());

  DesignPoint dp;
  dp.arch = ArchKind::kMulCim;
  dp.precision = precision_int8();
  dp.n = 32;
  dp.h = 128;
  dp.l = 16;
  dp.k = 8;
  std::vector<MacroMetrics> out(1);
  const std::vector<DesignPoint> one{dp};
  model.evaluate_batch(Span<const DesignPoint>(one), Span<MacroMetrics>(out));
  expect_bitwise_equal(out[0], evaluate_macro(tech, dp));
}

TEST(CostModelTest, DefaultBatchImplementationLoopsScalarEvaluate) {
  // A model that only implements evaluate() gets a correct batch path from
  // the base class.
  class ScalarOnlyModel final : public CostModel {
   public:
    explicit ScalarOnlyModel(const Technology& tech) : model_(tech) {}
    const Technology& tech() const override { return model_.tech(); }
    const EvalConditions& conditions() const override {
      return model_.conditions();
    }
    MacroMetrics evaluate(const DesignPoint& dp) const override {
      return model_.evaluate(dp);
    }

   private:
    AnalyticCostModel model_;
  };

  const Technology tech = Technology::tsmc28();
  const ScalarOnlyModel model(tech);
  const DesignSpace space(1 << 12, precision_int8());
  const auto points = space.enumerate_all();
  ASSERT_FALSE(points.empty());
  std::vector<MacroMetrics> batched(points.size());
  model.evaluate_batch(Span<const DesignPoint>(points),
                       Span<MacroMetrics>(batched));
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_bitwise_equal(batched[i], evaluate_macro(tech, points[i]));
  }
}

TEST(CostModelTest, StagedPipelineExposesCensusStructure) {
  const Technology tech = Technology::tsmc28();
  DesignPoint dp;
  dp.arch = ArchKind::kMulCim;
  dp.precision = precision_int8();
  dp.n = 32;
  dp.h = 128;
  dp.l = 16;
  dp.k = 8;
  const MacroCensus census = census_macro(tech, dp);
  // sram, weight sel, mul, tree, accumulator, fusion, input buffer.
  EXPECT_EQ(census.part_count, 7);
  EXPECT_EQ(census.parts[0].component, MacroComponent::kSram);
  EXPECT_EQ(census.parts[0].copies, dp.n * dp.h * dp.l);
  EXPECT_EQ(census.cycles, 1);  // ceil(8 / 8)

  DesignPoint fp = dp;
  fp.precision = precision_bf16();
  fp.arch = ArchKind::kFpCim;
  fp.k = 4;
  const MacroCensus fp_census = census_macro(tech, fp);
  // + pre-alignment and INT-to-FP converter stages.
  EXPECT_EQ(fp_census.part_count, 9);
  EXPECT_EQ(fp_census.parts[7].component, MacroComponent::kPreAlignment);
  EXPECT_EQ(fp_census.parts[8].component, MacroComponent::kIntToFp);

  const CostedMacro costed = cost_components(census);
  EXPECT_FALSE(costed.present[static_cast<int>(MacroComponent::kPreAlignment)]);
  const CostedMacro fp_costed = cost_components(fp_census);
  EXPECT_TRUE(
      fp_costed.present[static_cast<int>(MacroComponent::kPreAlignment)]);
}

}  // namespace
}  // namespace sega
