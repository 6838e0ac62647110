#include "dse/explorer.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "cost/cost_cache.h"
#include "util/assert.h"
#include "util/threadpool.h"

namespace sega {

namespace {

/// Evaluate @p points through the batched engine on the shared pool, one
/// private result slot per index (deterministic irrespective of scheduling
/// and chunking; a size-1 pool runs inline).
std::vector<EvaluatedDesign> evaluate_points(
    const CostModel& model, const std::vector<DesignPoint>& points) {
  std::vector<EvaluatedDesign> evaluated(points.size());
  ThreadPool::global().parallel_for_chunks(
      points.size(), kDseEvalChunk, [&](std::size_t begin, std::size_t end) {
        std::vector<MacroMetrics> metrics(end - begin);
        model.evaluate_batch(
            Span<const DesignPoint>(points.data() + begin, end - begin),
            Span<MacroMetrics>(metrics));
        for (std::size_t i = begin; i < end; ++i) {
          evaluated[i].point = points[i];
          evaluated[i].metrics = std::move(metrics[i - begin]);
        }
      });
  return evaluated;
}

/// Indices of the non-dominated designs among @p designs, ascending.
std::vector<std::size_t> non_dominated_designs(
    const std::vector<EvaluatedDesign>& designs) {
  std::vector<double> rows;
  std::size_t cols = 0;
  for (const EvaluatedDesign& ed : designs) {
    const auto o = ed.metrics.objectives();
    cols = o.size();
    rows.insert(rows.end(), o.begin(), o.end());
  }
  return non_dominated_indices(ObjectiveRows(rows.data(), designs.size(), cols));
}

}  // namespace

Objectives EvaluatedDesign::objectives() const {
  const auto arr = metrics.objectives();
  return Objectives(arr.begin(), arr.end());
}

EvaluatedDesign evaluate_design(const Technology& tech, const DesignPoint& dp,
                                const EvalConditions& cond) {
  return EvaluatedDesign{dp, evaluate_macro(tech, dp, cond)};
}

void sort_by_objectives(std::vector<EvaluatedDesign>* designs) {
  std::sort(designs->begin(), designs->end(),
            [](const EvaluatedDesign& a, const EvaluatedDesign& b) {
              return a.metrics.objectives() < b.metrics.objectives();
            });
}

std::vector<EvaluatedDesign> explore_nsga2(const DesignSpace& space,
                                           const Technology& tech,
                                           const EvalConditions& cond,
                                           const Nsga2Options& options,
                                           Nsga2Stats* stats) {
  CostCache cache(tech, cond);
  return explore_nsga2(space, cache, options, stats);
}

std::vector<EvaluatedDesign> explore_nsga2(const DesignSpace& space,
                                           CostCache& cache,
                                           const Nsga2Options& options,
                                           Nsga2Stats* stats) {
  const auto points = nsga2_optimize(space, cache, options, stats);
  // Materialize the front in one batch — every point is warm in the cache.
  std::vector<MacroMetrics> metrics(points.size());
  cache.evaluate_batch(Span<const DesignPoint>(points),
                       Span<MacroMetrics>(metrics));
  std::vector<EvaluatedDesign> out;
  out.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    out.push_back(EvaluatedDesign{points[i], std::move(metrics[i])});
  }
  sort_by_objectives(&out);
  return out;
}

std::vector<EvaluatedDesign> explore_exhaustive(const DesignSpace& space,
                                                const Technology& tech,
                                                const EvalConditions& cond) {
  const AnalyticCostModel model(tech, cond);
  const auto evaluated = evaluate_points(model, space.enumerate_all());
  const auto keep = non_dominated_designs(evaluated);
  std::vector<EvaluatedDesign> front;
  front.reserve(keep.size());
  for (const std::size_t i : keep) front.push_back(evaluated[i]);
  sort_by_objectives(&front);
  return front;
}

std::vector<EvaluatedDesign> explore_random(const DesignSpace& space,
                                            const Technology& tech,
                                            const EvalConditions& cond,
                                            int budget, std::uint64_t seed) {
  SEGA_EXPECTS(budget > 0);
  Rng rng(seed);
  // Sampling consumes the RNG stream serially; evaluation is pure and runs
  // in batches on the pool afterwards.
  std::vector<DesignPoint> points;
  points.reserve(static_cast<std::size_t>(budget));
  for (int i = 0; i < budget; ++i) {
    const auto dp = space.sample(rng);
    if (!dp) break;
    points.push_back(*dp);
  }
  const AnalyticCostModel model(tech, cond);
  const auto evaluated = evaluate_points(model, points);
  const auto keep = non_dominated_designs(evaluated);
  std::vector<EvaluatedDesign> front;
  for (const std::size_t i : keep) front.push_back(evaluated[i]);
  // Random sampling can hit the same point repeatedly; dedupe.
  sort_by_objectives(&front);
  front.erase(std::unique(front.begin(), front.end(),
                          [](const EvaluatedDesign& a, const EvaluatedDesign& b) {
                            return a.point == b.point;
                          }),
              front.end());
  return front;
}

std::vector<EvaluatedDesign> explore_multi_precision(
    std::int64_t wstore, const std::vector<Precision>& precisions,
    const Technology& tech, const EvalConditions& cond,
    const Nsga2Options& options, const SpaceConstraints& limits) {
  SEGA_EXPECTS(wstore > 0 && !precisions.empty());
  // One cache across all per-precision runs: precisions key differently so
  // entries never alias, and the final merge re-evaluations are lookups.
  CostCache cache(tech, cond);

  // The per-precision runs are independent (each gets its own decorrelated
  // seed and RNG stream), so whole runs are scheduled as pool tasks with one
  // private result slot per precision.  Inside a task the explorer's own
  // parallel_for degrades to the inline serial path (nested-parallelism
  // guard), so each run is bit-identical to its serial execution and the
  // fixed-order merge below is thread-count-invariant.
  std::unique_ptr<ThreadPool> owned;
  if (options.threads > 0) owned = std::make_unique<ThreadPool>(options.threads);
  ThreadPool& workers = owned ? *owned : ThreadPool::global();
  std::vector<std::vector<EvaluatedDesign>> fronts(precisions.size());
  workers.parallel_for(precisions.size(), [&](std::size_t i) {
    DesignSpace space(wstore, precisions[i], limits);
    Nsga2Options opt = options;
    // Decorrelate the per-precision runs while keeping determinism.
    opt.seed = options.seed + i;
    opt.threads = 0;  // inherit this task's thread (no nested pools)
    fronts[i] = explore_nsga2(space, cache, opt, nullptr);
  });
  std::vector<EvaluatedDesign> pool;
  for (auto& front : fronts) {
    pool.insert(pool.end(), std::make_move_iterator(front.begin()),
                std::make_move_iterator(front.end()));
  }
  // Cross-precision non-dominated filter: the objectives are in common
  // physical units, so INT and FP candidates compete directly.
  const auto keep = non_dominated_designs(pool);
  std::vector<EvaluatedDesign> merged;
  merged.reserve(keep.size());
  for (const std::size_t i : keep) merged.push_back(pool[i]);
  sort_by_objectives(&merged);
  return merged;
}

EvaluatedDesign explore_weighted_sum(const DesignSpace& space,
                                     const Technology& tech,
                                     const EvalConditions& cond,
                                     const WeightedSumOptions& options) {
  SEGA_EXPECTS(options.budget > 0);
  Rng rng(options.seed);
  const AnalyticCostModel model(tech, cond);

  // Normalize objectives with a quick probe so the weights act on
  // comparable scales.  The RNG stream and fold order match the historical
  // sample-and-evaluate-inline loop exactly; only the evaluation is batched.
  std::array<double, 4> scale{1.0, 1.0, 1.0, 1.0};
  {
    std::vector<DesignPoint> probe;
    probe.reserve(32);
    for (int i = 0; i < 32; ++i) {
      const auto dp = space.sample(rng);
      if (!dp) break;
      probe.push_back(*dp);
    }
    std::vector<MacroMetrics> metrics(probe.size());
    model.evaluate_batch(Span<const DesignPoint>(probe),
                         Span<MacroMetrics>(metrics));
    std::array<double, 4> best{};
    bool first = true;
    for (const MacroMetrics& m : metrics) {
      const auto obj = m.objectives();
      for (std::size_t j = 0; j < 4; ++j) {
        const double mag = std::fabs(obj[j]);
        best[j] = first ? mag : std::max(best[j], mag);
      }
      first = false;
    }
    for (std::size_t j = 0; j < 4; ++j) {
      if (best[j] > 0.0) scale[j] = 1.0 / best[j];
    }
  }

  const auto score = [&](const MacroMetrics& m) {
    const auto obj = m.objectives();
    double s = 0.0;
    for (std::size_t j = 0; j < 4; ++j) {
      s += options.weights[j] * obj[j] * scale[j];
    }
    return s;
  };

  // Random restarts + greedy descent over the enumerable space; candidates
  // are drawn serially (the stream does not depend on scores), evaluated in
  // pool batches, and folded in draw order — identical to the historical
  // one-at-a-time loop.
  const auto all = space.enumerate_all();
  SEGA_EXPECTS(!all.empty());
  DesignPoint best_dp = all.front();
  double best_score = score(model.evaluate(best_dp));
  int spent = 1;
  std::vector<DesignPoint> candidates;
  while (spent < options.budget) {
    const auto dp = space.sample(rng);
    ++spent;
    if (!dp) break;
    candidates.push_back(*dp);
  }
  const auto evaluated = evaluate_points(model, candidates);
  for (const EvaluatedDesign& ed : evaluated) {
    const double s = score(ed.metrics);
    if (s < best_score) {
      best_score = s;
      best_dp = ed.point;
    }
  }
  return EvaluatedDesign{best_dp, model.evaluate(best_dp)};
}

}  // namespace sega
