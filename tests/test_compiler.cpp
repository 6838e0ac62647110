#include "compiler/compiler.h"

#include <gtest/gtest.h>

namespace sega {
namespace {

CompilerSpec fast_spec(const char* precision, std::int64_t wstore) {
  CompilerSpec spec;
  spec.wstore = wstore;
  spec.precision = *precision_from_name(precision);
  spec.dse.population = 32;
  spec.dse.generations = 24;
  spec.dse.seed = 3;
  return spec;
}

TEST(SpecJsonTest, ParsesFullSpec) {
  const auto json = Json::parse(R"({
    "wstore": 16384, "precision": "BF16", "supply_v": 0.8,
    "sparsity": 0.1, "distill": "min_area", "max_selected": 2,
    "population": 48, "generations": 32, "seed": 9,
    "generate_rtl": false, "generate_layout": false
  })");
  ASSERT_TRUE(json.has_value());
  std::string err;
  const auto spec = CompilerSpec::from_json(*json, &err);
  ASSERT_TRUE(spec.has_value()) << err;
  EXPECT_EQ(spec->wstore, 16384);
  EXPECT_EQ(spec->precision.name, "BF16");
  EXPECT_DOUBLE_EQ(spec->eval.conditions.supply_v, 0.8);
  EXPECT_DOUBLE_EQ(spec->eval.conditions.input_sparsity, 0.1);
  EXPECT_EQ(spec->distill, DistillPolicy::kMinArea);
  EXPECT_EQ(spec->max_selected, 2);
  EXPECT_EQ(spec->dse.population, 48);
  EXPECT_FALSE(spec->generate_rtl);
}

TEST(SpecJsonTest, RejectsUnknownKeys) {
  const auto json = Json::parse(R"({"wstore": 8192, "precison": "INT8"})");
  std::string err;
  EXPECT_FALSE(CompilerSpec::from_json(*json, &err).has_value());
  EXPECT_NE(err.find("precison"), std::string::npos);
}

TEST(SpecJsonTest, RejectsBadValues) {
  for (const char* bad :
       {R"({"wstore": 0})", R"({"precision": "INT3"})",
        R"({"sparsity": 1.5})", R"({"distill": "best"})",
        R"({"max_selected": 0})", R"({"supply_v": -1})"}) {
    const auto json = Json::parse(bad);
    ASSERT_TRUE(json.has_value()) << bad;
    EXPECT_FALSE(CompilerSpec::from_json(*json).has_value()) << bad;
  }
}

TEST(SpecJsonTest, RoundTrips) {
  CompilerSpec spec = fast_spec("FP16", 65536);
  spec.distill = DistillPolicy::kMaxThroughput;
  std::string err;
  const auto back = CompilerSpec::from_json(spec.to_json(), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->wstore, spec.wstore);
  EXPECT_TRUE(back->precision == spec.precision);
  EXPECT_EQ(back->distill, spec.distill);
  EXPECT_EQ(back->dse.seed, spec.dse.seed);
}

TEST(DistillTest, PoliciesPickExtremes) {
  const Technology tech = Technology::tsmc28();
  DesignSpace space(16384, precision_int8());
  const auto front = explore_exhaustive(space, tech);
  ASSERT_GT(front.size(), 2u);

  const auto min_area =
      Compiler::distill(front, DistillPolicy::kMinArea, 1);
  const auto max_tput =
      Compiler::distill(front, DistillPolicy::kMaxThroughput, 1);
  ASSERT_EQ(min_area.size(), 1u);
  for (const auto& ed : front) {
    EXPECT_LE(front[min_area[0]].metrics.area_mm2,
              ed.metrics.area_mm2 + 1e-12);
    EXPECT_GE(front[max_tput[0]].metrics.throughput_tops,
              ed.metrics.throughput_tops - 1e-12);
  }
}

TEST(DistillTest, KneeIsOnFrontAndBalanced) {
  const Technology tech = Technology::tsmc28();
  DesignSpace space(16384, precision_int8());
  const auto front = explore_exhaustive(space, tech);
  const auto knee = Compiler::distill(front, DistillPolicy::kKnee, 1);
  ASSERT_EQ(knee.size(), 1u);
  EXPECT_LT(knee[0], front.size());
  // The knee must not be the worst design in any normalized objective
  // unless the front is degenerate.
  const auto& k = front[knee[0]];
  int worst_count = 0;
  for (std::size_t d = 0; d < 4; ++d) {
    bool is_worst = true;
    for (const auto& ed : front) {
      if (ed.metrics.objectives()[d] > k.metrics.objectives()[d]) {
        is_worst = false;
        break;
      }
    }
    worst_count += is_worst ? 1 : 0;
  }
  EXPECT_LT(worst_count, 2);
}

TEST(DistillTest, AllPolicyBounded) {
  const Technology tech = Technology::tsmc28();
  DesignSpace space(8192, precision_int8());
  const auto front = explore_exhaustive(space, tech);
  const auto all = Compiler::distill(front, DistillPolicy::kAll, 5);
  EXPECT_LE(all.size(), 5u);
  EXPECT_GE(all.size(), 1u);
}

TEST(CompilerTest, EndToEndInt8) {
  Compiler compiler(Technology::tsmc28());
  CompilerSpec spec = fast_spec("INT8", 8192);
  spec.generate_def = true;
  const CompilerResult result = compiler.run(spec);
  ASSERT_FALSE(result.pareto_front.empty());
  ASSERT_EQ(result.selected.size(), 1u);  // knee
  const auto& sel = result.selected[0];
  EXPECT_EQ(sel.design.point.wstore(), 8192);
  EXPECT_FALSE(sel.verilog.empty());
  EXPECT_NE(sel.verilog.find("module dcim_INT8"), std::string::npos);
  EXPECT_GT(sel.layout.area_mm2, 0.0);
  EXPECT_FALSE(sel.def.empty());
  EXPECT_GT(result.dse_stats.evaluations, 0);
}

TEST(CompilerTest, EndToEndBf16GeneratesFpMacro) {
  Compiler compiler(Technology::tsmc28());
  CompilerSpec spec = fast_spec("BF16", 4096);
  spec.distill = DistillPolicy::kMinArea;
  const CompilerResult result = compiler.run(spec);
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0].design.point.arch, ArchKind::kFpCim);
  EXPECT_NE(result.selected[0].verilog.find("out_mant0"), std::string::npos);
}

TEST(CompilerTest, GenerationCanBeDisabled) {
  Compiler compiler(Technology::tsmc28());
  CompilerSpec spec = fast_spec("INT4", 16384);
  spec.generate_rtl = false;
  spec.generate_layout = false;
  const CompilerResult result = compiler.run(spec);
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_TRUE(result.selected[0].verilog.empty());
  EXPECT_DOUBLE_EQ(result.selected[0].layout.area_mm2, 0.0);
}

TEST(CompilerTest, ReportIsValidJson) {
  Compiler compiler(Technology::tsmc28());
  CompilerSpec spec = fast_spec("INT8", 8192);
  spec.generate_rtl = false;
  spec.generate_layout = false;
  const CompilerResult result = compiler.run(spec);
  const Json report = result.report();
  EXPECT_TRUE(report.contains("pareto_front"));
  EXPECT_EQ(report.at("pareto_front").size(), result.pareto_front.size());
  // Round-trips through text.
  const auto parsed = Json::parse(report.dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(*parsed == report);
  // Spec embedded in the report can reconstruct the spec.
  EXPECT_TRUE(CompilerSpec::from_json(report.at("spec")).has_value());
}

TEST(CompilerTest, SummaryMentionsEveryFrontDesign) {
  Compiler compiler(Technology::tsmc28());
  CompilerSpec spec = fast_spec("INT8", 8192);
  spec.generate_rtl = false;
  spec.generate_layout = false;
  const CompilerResult result = compiler.run(spec);
  const std::string s = result.summary();
  for (const auto& ed : result.pareto_front) {
    EXPECT_NE(s.find(ed.point.to_string()), std::string::npos);
  }
}

TEST(CompilerTest, DeterministicAcrossRuns) {
  Compiler compiler(Technology::tsmc28());
  CompilerSpec spec = fast_spec("INT8", 32768);
  spec.generate_rtl = false;
  spec.generate_layout = false;
  const CompilerResult a = compiler.run(spec);
  const CompilerResult b = compiler.run(spec);
  ASSERT_EQ(a.pareto_front.size(), b.pareto_front.size());
  for (std::size_t i = 0; i < a.pareto_front.size(); ++i) {
    EXPECT_TRUE(a.pareto_front[i].point == b.pareto_front[i].point);
  }
}

}  // namespace
}  // namespace sega
