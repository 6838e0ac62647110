#include "compiler/compiler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "cost/cost_cache.h"
#include "util/assert.h"
#include "util/strings.h"
#include "util/table.h"

namespace sega {

Compiler::Compiler(Technology tech) : tech_(std::move(tech)) {}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Index minimizing a projection.
template <typename Fn>
std::size_t argmin(const std::vector<EvaluatedDesign>& front, Fn&& value) {
  SEGA_EXPECTS(!front.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < front.size(); ++i) {
    if (value(front[i]) < value(front[best])) best = i;
  }
  return best;
}

/// Knee point: minimal Euclidean distance to the ideal corner after
/// per-objective min-max normalization.
std::size_t knee_index(const std::vector<EvaluatedDesign>& front) {
  SEGA_EXPECTS(!front.empty());
  constexpr std::size_t kDims = 4;
  std::array<double, kDims> lo{}, hi{};
  for (std::size_t d = 0; d < kDims; ++d) {
    lo[d] = std::numeric_limits<double>::infinity();
    hi[d] = -std::numeric_limits<double>::infinity();
  }
  for (const auto& ed : front) {
    const auto obj = ed.metrics.objectives();
    for (std::size_t d = 0; d < kDims; ++d) {
      lo[d] = std::min(lo[d], obj[d]);
      hi[d] = std::max(hi[d], obj[d]);
    }
  }
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < front.size(); ++i) {
    const auto obj = front[i].metrics.objectives();
    double dist = 0.0;
    for (std::size_t d = 0; d < kDims; ++d) {
      const double span = hi[d] - lo[d];
      const double norm = span > 0.0 ? (obj[d] - lo[d]) / span : 0.0;
      dist += norm * norm;
    }
    if (dist < best_dist) {
      best_dist = dist;
      best = i;
    }
  }
  return best;
}

}  // namespace

std::vector<std::size_t> Compiler::distill(
    const std::vector<EvaluatedDesign>& front, DistillPolicy policy,
    int max_selected) {
  SEGA_EXPECTS(max_selected >= 1);
  if (front.empty()) return {};
  switch (policy) {
    case DistillPolicy::kKnee:
      return {knee_index(front)};
    case DistillPolicy::kMinArea:
      return {argmin(front, [](const EvaluatedDesign& e) {
        return e.metrics.area_mm2;
      })};
    case DistillPolicy::kMinDelay:
      return {argmin(front, [](const EvaluatedDesign& e) {
        return e.metrics.delay_ns;
      })};
    case DistillPolicy::kMinEnergy:
      return {argmin(front, [](const EvaluatedDesign& e) {
        return e.metrics.energy_per_mvm_nj;
      })};
    case DistillPolicy::kMaxThroughput:
      return {argmin(front, [](const EvaluatedDesign& e) {
        return -e.metrics.throughput_tops;
      })};
    case DistillPolicy::kAll: {
      std::vector<std::size_t> all(front.size());
      for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
      if (static_cast<int>(all.size()) > max_selected) {
        all.resize(static_cast<std::size_t>(max_selected));
      }
      return all;
    }
  }
  SEGA_ASSERT(false);
  return {};
}

namespace {

/// Fail like the sweep engine's checkpoint path: diagnose through *error
/// when the caller can handle it, abort otherwise — a run must never
/// silently drop its persistent cache.
CompilerResult compiler_fail(const std::string& msg, std::string* error) {
  if (error) {
    *error = msg;
    return {};
  }
  std::fprintf(stderr, "[sega] %s\n", msg.c_str());
  std::abort();
}

}  // namespace

CompilerResult Compiler::run(const CompilerSpec& spec) const {
  return run(spec, nullptr, nullptr);
}

CompilerResult Compiler::run(const CompilerSpec& spec, CostCache* cache,
                             std::string* error) const {
  if (error) error->clear();
  // A caller-provided cache carries its own model (the caller resolved the
  // same spec — run_sweep does); otherwise spec.eval resolves into a local
  // cache, seeded from and saved back to spec.cache_file when one is set.
  if (cache) return run_impl(spec, *cache);
  std::string eval_error;
  auto model = spec.eval.make_model(tech_, &eval_error);
  if (!model) return compiler_fail(eval_error, error);
  CostCache local(std::move(model));
  std::string cache_error;
  if (!spec.cache_file.empty() &&
      !local.load_existing({spec.cache_file}, &cache_error)) {
    return compiler_fail(cache_error, error);
  }
  CompilerResult result = run_impl(spec, local);
  // Non-fatal: the compilation is already done; a memo-write failure must
  // not discard it.  The next run simply re-pays the evaluations.
  if (!spec.cache_file.empty() && !local.save(spec.cache_file, &cache_error)) {
    std::fprintf(stderr, "[sega] warning: %s (results unaffected)\n",
                 cache_error.c_str());
  }
  return result;
}

CompilerResult Compiler::run_impl(const CompilerSpec& spec,
                                  CostCache& cache) const {
  CompilerResult result;
  result.spec = spec;

  // --- MOGA-based design space exploration ---
  const auto dse_start = Clock::now();
  DesignSpace space(spec.wstore, spec.precision, spec.limits);
  result.pareto_front =
      explore_nsga2(space, cache, spec.dse, &result.dse_stats);
  result.dse_seconds = seconds_since(dse_start);

  // --- user distillation ---
  const auto chosen =
      distill(result.pareto_front, spec.distill, spec.max_selected);

  // --- template-based generation ---
  const auto gen_start = Clock::now();
  for (const std::size_t idx : chosen) {
    SelectedDesign sel;
    sel.design = result.pareto_front[idx];
    sel.selection_reason = distill_policy_name(spec.distill);
    if (spec.generate_rtl || spec.generate_layout || spec.generate_def) {
      const DcimMacro macro = build_dcim_macro(sel.design.point);
      if (spec.generate_rtl) {
        sel.verilog = verilog_cell_library() + "\n" +
                      write_verilog(macro.netlist);
      }
      if (spec.generate_layout || spec.generate_def) {
        sel.layout = floorplan_macro(tech_, macro);
        if (spec.generate_def) sel.def = write_def(sel.layout, macro.netlist);
      }
    }
    result.selected.push_back(std::move(sel));
  }
  result.generation_seconds = seconds_since(gen_start);
  return result;
}

namespace {

Json design_to_json(const EvaluatedDesign& ed) {
  Json j = Json::object();
  j["arch"] = arch_kind_name(ed.point.arch);
  j["precision"] = ed.point.precision.name;
  j["n"] = ed.point.n;
  j["h"] = ed.point.h;
  j["l"] = ed.point.l;
  j["k"] = ed.point.k;
  j["wstore"] = ed.point.wstore();
  j["area_mm2"] = ed.metrics.area_mm2;
  j["delay_ns"] = ed.metrics.delay_ns;
  j["energy_per_mvm_nj"] = ed.metrics.energy_per_mvm_nj;
  j["throughput_tops"] = ed.metrics.throughput_tops;
  j["tops_per_w"] = ed.metrics.tops_per_w;
  j["tops_per_mm2"] = ed.metrics.tops_per_mm2;
  return j;
}

}  // namespace

Json CompilerResult::report() const {
  Json j = Json::object();
  j["spec"] = spec.to_json();
  j["dse"] = Json::object();
  j["dse"]["seconds"] = dse_seconds;
  j["dse"]["evaluations"] = dse_stats.evaluations;
  j["dse"]["generations"] = dse_stats.generations_run;
  j["pareto_front"] = Json::array();
  for (const auto& ed : pareto_front) {
    j["pareto_front"].push_back(design_to_json(ed));
  }
  j["selected"] = Json::array();
  for (const auto& sel : selected) {
    Json s = design_to_json(sel.design);
    s["selection_reason"] = sel.selection_reason;
    if (!sel.verilog.empty()) {
      s["verilog_bytes"] = static_cast<std::int64_t>(sel.verilog.size());
    }
    if (sel.layout.width_um > 0.0) {
      s["layout_width_um"] = sel.layout.width_um;
      s["layout_height_um"] = sel.layout.height_um;
      s["layout_area_mm2"] = sel.layout.area_mm2;
    }
    j["selected"].push_back(std::move(s));
  }
  j["generation_seconds"] = generation_seconds;
  return j;
}

std::string CompilerResult::summary() const {
  std::string out = strfmt(
      "SEGA-DCIM compilation: Wstore=%lld precision=%s — %zu Pareto designs "
      "(%lld evaluations, %.2fs DSE)\n\n",
      static_cast<long long>(spec.wstore), spec.precision.name.c_str(),
      pareto_front.size(), static_cast<long long>(dse_stats.evaluations),
      dse_seconds);
  TextTable table({"design", "area (mm^2)", "delay (ns)", "E/MVM (nJ)",
                   "TOPS", "TOPS/W", "TOPS/mm^2"});
  for (const auto& ed : pareto_front) {
    table.add_row({ed.point.to_string(),
                   strfmt("%.4f", ed.metrics.area_mm2),
                   strfmt("%.3f", ed.metrics.delay_ns),
                   strfmt("%.4f", ed.metrics.energy_per_mvm_nj),
                   strfmt("%.3f", ed.metrics.throughput_tops),
                   strfmt("%.1f", ed.metrics.tops_per_w),
                   strfmt("%.2f", ed.metrics.tops_per_mm2)});
  }
  out += table.render();
  if (!selected.empty()) {
    out += strfmt("\nSelected (%s):\n",
                  distill_policy_name(spec.distill));
    for (const auto& sel : selected) {
      out += "  " + sel.design.point.to_string();
      if (sel.layout.width_um > 0.0) {
        out += strfmt("  ->  layout %.0fum x %.0fum = %.4f mm^2",
                      sel.layout.width_um, sel.layout.height_um,
                      sel.layout.area_mm2);
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace sega
