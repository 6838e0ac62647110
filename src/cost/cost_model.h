// CostModel — the first-class evaluation interface of the layered engine.
//
// Everything that consumes macro metrics (NSGA-II, the exhaustive/random/
// weighted-sum baselines, the sweep grid) talks to a CostModel rather than
// to the free evaluate_macro function.  The interface is batch-oriented:
// pool tasks submit whole chunks of design points through evaluate_batch(),
// so a decorator such as CostCache takes its locks once per chunk and
// RtlCostModel can fan a chunk out over threads.
//
// AnalyticCostModel is the paper's Table II-VI model: evaluate_macro's
// stages under the model's calibration, one point at a time.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "cost/macro_model.h"
#include "util/span.h"

namespace sega {

class Calibration;

class CostModel {
 public:
  virtual ~CostModel() = default;

  virtual const Technology& tech() const = 0;
  virtual const EvalConditions& conditions() const = 0;

  /// Stable identity of the model's *formulas* — folded (with
  /// model_version) into persistent cost-memo fingerprints so memos written
  /// by different backends can never cross-contaminate.  Decorators
  /// delegate to the wrapped model; instrumented test wrappers around the
  /// analytic model keep the default.
  virtual const char* model_name() const { return "analytic"; }
  virtual int model_version() const { return kCostModelVersion; }

  /// The calibration this model evaluates under, or nullptr for the
  /// uncalibrated formulas.  Like model_name(), this is model *identity*:
  /// its fingerprint() joins persistent memo headers and sweep config
  /// fingerprints, so calibrated and uncalibrated results can never
  /// cross-contaminate.  Decorators delegate to the wrapped model.
  virtual std::shared_ptr<const Calibration> calibration() const {
    return nullptr;
  }

  /// Whether the layout/interconnect stage (layout_cost.h) is folded into
  /// this model's metrics.  Model *identity* like calibration(): the memo
  /// header and sweep config fingerprint gain a "layout" key only when
  /// enabled, so layout-on and layout-off state never cross-load while
  /// pre-existing layout-off artifacts stay byte-identical.  Decorators
  /// delegate to the wrapped model.
  virtual bool layout_enabled() const { return false; }

  /// Evaluate one design point.
  virtual MacroMetrics evaluate(const DesignPoint& dp) const = 0;

  /// Evaluate points[i] into out[i] for every i.  Precondition: the spans
  /// have equal size.  The default implementation loops evaluate();
  /// implementations override it to amortize work across the batch.
  /// Must be safe to call concurrently from several threads.
  virtual void evaluate_batch(Span<const DesignPoint> points,
                              Span<MacroMetrics> out) const;
};

/// The selectable evaluation backends (spec key "cost_model", CLI
/// --cost-model): the closed-form analytic model, or the measured RTL/STA/
/// gate-sim reference (rtl_cost_model.h).
enum class CostModelKind {
  kAnalytic,
  kRtl,
};

/// "analytic" / "rtl" — the model_name() of the backend, and the spelling
/// accepted by specs and the CLI.
const char* cost_model_kind_name(CostModelKind kind);
std::optional<CostModelKind> cost_model_kind_from_name(const std::string& name);

/// The one diagnostic for a calibration artifact combined with the rtl
/// backend: the artifact was fitted *against* that backend's measurements.
extern const char* const kRtlCalibrationError;

/// Construct the chosen backend.  The model keeps a pointer to @p tech; the
/// technology must outlive it.  @p cal applies a calibration artifact; only
/// the analytic backend accepts one, so kind == kRtl with a non-null @p cal
/// throws std::runtime_error(kRtlCalibrationError).  @p layout folds the
/// layout/interconnect stage (layout_cost.h) into either backend's metrics.
/// EvalConfig::make_model (eval_config.h) is the checked entry point that
/// builds this from a spec or the CLI.
std::unique_ptr<CostModel> make_cost_model(
    CostModelKind kind, const Technology& tech, EvalConditions cond = {},
    std::shared_ptr<const Calibration> cal = nullptr, bool layout = false);

/// The analytic model of Tables II-VI: EvalContext -> gate census ->
/// component costing -> absolute-metric derivation.  The context is hoisted
/// to construction; the base evaluate_batch loop serves batches.
class AnalyticCostModel final : public CostModel {
 public:
  /// The model keeps a pointer to @p tech; the technology must outlive it.
  /// A null @p cal is the uncalibrated model; otherwise every evaluation
  /// derives under the artifact's correction.  With @p layout, every
  /// evaluation also builds the macro netlist, floorplans it, and folds the
  /// wire parasitics (layout_cost.h) after metric derivation.  Both stages
  /// are per-point pure, so batches stay bit-identical to single points at
  /// any thread count and to the fitter's own re-evaluation.
  explicit AnalyticCostModel(const Technology& tech, EvalConditions cond = {},
                             std::shared_ptr<const Calibration> cal = nullptr,
                             bool layout = false);

  const Technology& tech() const override { return ctx_.tech(); }
  const EvalConditions& conditions() const override {
    return ctx_.conditions();
  }
  std::shared_ptr<const Calibration> calibration() const override {
    return cal_;
  }
  bool layout_enabled() const override { return layout_; }

  MacroMetrics evaluate(const DesignPoint& dp) const override;

 private:
  EvalContext ctx_;
  std::shared_ptr<const Calibration> cal_;
  MetricCorrection correction_;  ///< cal_'s parameters, or the identity
  bool layout_ = false;
};

}  // namespace sega
