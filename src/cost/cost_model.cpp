#include "cost/cost_model.h"

#include <stdexcept>

#include "cost/calibrate.h"
#include "cost/layout_cost.h"
#include "cost/rtl_cost_model.h"
#include "rtl/macro_builder.h"
#include "util/assert.h"
#include "util/strings.h"

namespace sega {

const char* cost_model_kind_name(CostModelKind kind) {
  switch (kind) {
    case CostModelKind::kAnalytic: return "analytic";
    case CostModelKind::kRtl: return "rtl";
  }
  SEGA_ASSERT(false);
  return "";
}

std::optional<CostModelKind> cost_model_kind_from_name(
    const std::string& name) {
  const std::string n = to_lower(trim(name));
  for (const CostModelKind kind :
       {CostModelKind::kAnalytic, CostModelKind::kRtl}) {
    if (n == cost_model_kind_name(kind)) return kind;
  }
  return std::nullopt;
}

const char* const kRtlCalibrationError =
    "calibration_file only applies to the analytic cost model; the rtl "
    "backend is the measurement it was fitted against";

std::unique_ptr<CostModel> make_cost_model(
    CostModelKind kind, const Technology& tech, EvalConditions cond,
    std::shared_ptr<const Calibration> cal, bool layout) {
  switch (kind) {
    case CostModelKind::kAnalytic:
      return std::make_unique<AnalyticCostModel>(tech, cond, std::move(cal),
                                                 layout);
    case CostModelKind::kRtl: {
      if (cal) throw std::runtime_error(kRtlCalibrationError);
      RtlCostModelOptions options;
      options.layout = layout;
      return std::make_unique<RtlCostModel>(tech, cond, options);
    }
  }
  SEGA_ASSERT(false);
  return nullptr;
}

void CostModel::evaluate_batch(Span<const DesignPoint> points,
                               Span<MacroMetrics> out) const {
  SEGA_EXPECTS(points.size() == out.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    out[i] = evaluate(points[i]);
  }
}

AnalyticCostModel::AnalyticCostModel(const Technology& tech,
                                     EvalConditions cond,
                                     std::shared_ptr<const Calibration> cal,
                                     bool layout)
    : ctx_(tech, cond), cal_(std::move(cal)), layout_(layout) {
  if (cal_) correction_ = *cal_;
}

MacroMetrics AnalyticCostModel::evaluate(const DesignPoint& dp) const {
  const MacroCensus census = census_macro(tech(), dp);
  MacroMetrics m =
      derive_metrics(ctx_, census, cost_components(census), correction_);
  if (layout_) {
    apply_layout_cost(estimate_layout_cost(ctx_, build_dcim_macro(dp)), &m);
  }
  return m;
}

}  // namespace sega
