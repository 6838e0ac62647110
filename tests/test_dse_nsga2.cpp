#include "dse/nsga2.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "cost/cost_cache.h"
#include "dse/explorer.h"
#include "util/strings.h"

namespace sega {
namespace {

Objectives objectives_of(const CostModel& model, const DesignPoint& dp) {
  const auto arr = model.evaluate(dp).objectives();
  return Objectives(arr.begin(), arr.end());
}

TEST(Nsga2Test, ReturnsNonEmptyFront) {
  const Technology tech = Technology::tsmc28();
  const AnalyticCostModel model(tech);
  DesignSpace space(8192, precision_int8());
  const auto front = nsga2_optimize(space, model, {});
  EXPECT_FALSE(front.empty());
}

TEST(Nsga2Test, AllResultsAreValidDesigns) {
  const Technology tech = Technology::tsmc28();
  const AnalyticCostModel model(tech);
  DesignSpace space(65536, precision_bf16());
  const auto front = nsga2_optimize(space, model, {});
  for (const auto& dp : front) {
    const Validity v = validate_design(dp, 65536, space.limits());
    EXPECT_TRUE(v.ok) << dp.to_string() << ": " << v.reason;
  }
}

TEST(Nsga2Test, DeterministicForSeed) {
  const Technology tech = Technology::tsmc28();
  const AnalyticCostModel model(tech);
  DesignSpace space(16384, precision_int4());
  Nsga2Options opt;
  opt.seed = 77;
  const auto a = nsga2_optimize(space, model, opt);
  const auto b = nsga2_optimize(space, model, opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]);
  }
}

TEST(Nsga2Test, ResultsAreMutuallyNonDominated) {
  const Technology tech = Technology::tsmc28();
  const AnalyticCostModel model(tech);
  DesignSpace space(32768, precision_int8());
  const auto front = nsga2_optimize(space, model, {});
  for (const auto& a : front) {
    for (const auto& b : front) {
      if (a == b) continue;
      EXPECT_FALSE(
          dominates(objectives_of(model, a), objectives_of(model, b)))
          << a.to_string() << " dominates " << b.to_string();
    }
  }
}

TEST(Nsga2Test, NoDuplicatesInFront) {
  const Technology tech = Technology::tsmc28();
  const AnalyticCostModel model(tech);
  DesignSpace space(16384, precision_int8());
  const auto front = nsga2_optimize(space, model, {});
  std::set<std::string> seen;
  for (const auto& dp : front) {
    EXPECT_TRUE(seen.insert(dp.to_string()).second) << dp.to_string();
  }
}

TEST(Nsga2Test, TracksEvaluationStats) {
  const Technology tech = Technology::tsmc28();
  const AnalyticCostModel model(tech);
  DesignSpace space(8192, precision_int8());
  Nsga2Options opt;
  opt.population = 16;
  opt.generations = 10;
  Nsga2Stats stats;
  nsga2_optimize(space, model, opt, &stats);
  EXPECT_EQ(stats.generations_run, 10);
  // Distinct genomes are evaluated once (archive caching), so the count is
  // bounded by initial population + offspring, and at least the population.
  EXPECT_GE(stats.evaluations, 16);
  EXPECT_LE(stats.evaluations, 16 * 11);
}

// Front-quality contract (recall gate): on the default 48-cell sweep grid at
// seed 1, the share of each cell's exact front (explore_exhaustive) that the
// default NSGA-II run finds.  The explorer is deterministic, so these are
// exact figures, not samples; the floors are the values measured when the
// gate was added.  A DSE change that loses front points fails here.
TEST(Nsga2RecallTest, DefaultGridRecallHoldsItsFloors) {
  constexpr double kMeanFloor = 0.9752;
  constexpr double kMinFloor = 0.8897;
  const Technology tech = Technology::tsmc28();
  CostCache cache(tech, EvalConditions{});
  Nsga2Options opt;
  opt.seed = 1;
  double sum = 0.0;
  double worst = 1.0;
  std::string worst_cell;
  int cells = 0;
  for (const std::int64_t wstore :
       {4096, 8192, 16384, 32768, 65536, 131072}) {
    for (const Precision& precision : all_precisions()) {
      const DesignSpace space(wstore, precision);
      const auto exact = explore_exhaustive(space, tech);
      const auto found = explore_nsga2(space, cache, opt);
      ASSERT_FALSE(exact.empty());
      std::size_t hit = 0;
      for (const auto& e : exact) {
        hit += std::any_of(found.begin(), found.end(),
                           [&](const EvaluatedDesign& f) {
                             return f.point == e.point;
                           });
      }
      const double recall =
          static_cast<double>(hit) / static_cast<double>(exact.size());
      sum += recall;
      ++cells;
      if (recall < worst) {
        worst = recall;
        worst_cell = strfmt("%s at %lld", precision.name.c_str(),
                            static_cast<long long>(wstore));
      }
    }
  }
  ASSERT_EQ(cells, 48);
  const double mean = sum / cells;
  EXPECT_GE(mean, kMeanFloor) << strfmt("mean recall %.6f", mean);
  EXPECT_GE(worst, kMinFloor)
      << strfmt("min recall %.6f (%s)", worst, worst_cell.c_str());
  std::printf("recall over the default grid: mean %.6f, min %.6f (%s)\n",
              mean, worst, worst_cell.c_str());
}

// The key quality bar: on every paper precision at 64K weights, NSGA-II must
// recover (a subset of) the exhaustive ground-truth front and cover most of
// its hypervolume.
class Nsga2VsExhaustiveTest : public ::testing::TestWithParam<std::string> {};

TEST_P(Nsga2VsExhaustiveTest, RecoversExhaustiveFront) {
  const Technology tech = Technology::tsmc28();
  const auto precision = precision_from_name(GetParam());
  ASSERT_TRUE(precision.has_value());
  DesignSpace space(65536, *precision);

  const auto truth = explore_exhaustive(space, tech);
  ASSERT_FALSE(truth.empty());
  std::set<std::string> truth_keys;
  std::vector<Objectives> truth_objs;
  for (const auto& ed : truth) {
    truth_keys.insert(ed.point.to_string());
    truth_objs.push_back(ed.objectives());
  }

  Nsga2Options opt;
  opt.population = 96;
  opt.generations = 96;
  opt.seed = 5;
  const auto found = explore_nsga2(space, tech, {}, opt);
  ASSERT_FALSE(found.empty());

  // (1) The large majority of GA designs must lie on the true front.  (A
  // point the GA reports can be off-front only when the GA never evaluated
  // any of its dominators; a handful of such near-misses is inherent to a
  // 4-objective GA, but they must stay rare.)
  std::vector<Objectives> found_objs;
  std::size_t on_front = 0;
  for (const auto& ed : found) {
    if (truth_keys.count(ed.point.to_string())) ++on_front;
    found_objs.push_back(ed.objectives());
  }
  EXPECT_GE(static_cast<double>(on_front),
            0.85 * static_cast<double>(found.size()))
      << "too many off-front designs: " << found.size() - on_front << "/"
      << found.size();

  // (2) Hypervolume coverage >= 95 % of ground truth.
  Objectives ref(4);
  for (std::size_t j = 0; j < 4; ++j) {
    double worst = truth_objs[0][j];
    for (const auto& o : truth_objs) worst = std::max(worst, o[j]);
    ref[j] = worst * 1.1 + 1.0;
  }
  const double hv_truth = hypervolume_monte_carlo(truth_objs, ref, 40000, 9);
  const double hv_found = hypervolume_monte_carlo(found_objs, ref, 40000, 9);
  EXPECT_GE(hv_found, 0.95 * hv_truth) << "GA covers too little hypervolume";
}

INSTANTIATE_TEST_SUITE_P(Precisions, Nsga2VsExhaustiveTest,
                         ::testing::Values("INT2", "INT4", "INT8", "INT16",
                                           "FP8", "FP16", "BF16", "FP32"));

}  // namespace
}  // namespace sega
