// Calibration — closing the analytic/measured loop.
//
// `sega_dcim validate` gates analytic-vs-RTL divergence; this module *learns*
// from it.  A deterministic least-squares fitter regresses per-module area and
// energy factors plus per-metric scale corrections from an RTL-traced knee
// corpus, and the result — a Calibration — rides along as a versioned,
// checksummed JSONL artifact (docs/FORMATS.md "Calibration artifact JSONL")
// that AnalyticCostModel optionally loads.  The artifact's identity
// (format version + content digest) joins the CostCache memo fingerprint and
// the sweep checkpoint config fingerprint, so calibrated and uncalibrated
// artifacts can never cross-contaminate.
//
// Fit design, and the envelope guarantee:
//
//   1. *Per-module factors* (area and energy separately): each factor is an
//      independent one-column least-squares fit, in closed form, of the
//      measured component breakdown against the analytic one — diagonal
//      systems that stay full rank even on the 3-knee default corpus (a
//      joint 8-column regression over 3 points would always be
//      rank-deficient).  Modules absent from the corpus keep factor 1.0.
//   2. *Per-metric scales* (area, delay, energy, throughput): with the module
//      factors applied, each headline metric gets one multiplicative scale
//      chosen as the **minimax center** s = (rho_max + rho_min) / 2 of the
//      measured/predicted ratios rho_i.  For 0 < a <= b, the resulting
//      envelope (b - a)/(a + b) never exceeds max(b - 1, 1 - a), the
//      uncalibrated envelope — so minimax centering *provably* tightens (or
//      matches) the per-metric max |rel-err| envelope, which a plain
//      least-squares scale does not guarantee.
//   3. *Envelope guard*: module factors carry no such proof, so after fitting
//      each metric the fitter re-evaluates the corpus through the exact
//      calibrated path and, if the envelope widened, falls back (factors to
//      1.0, rescale; ultimately scale 1.0 == bit-identical uncalibrated).
//      `validate --calibrate` therefore always reports after <= before.
//
// Determinism: the corpus is canonically sorted before any solve
// (sort-before-solve), every accumulation runs in a fixed order, and the
// calibrated evaluation path is per-point pure — fit and evaluation are
// bit-identical at any thread count and under any corpus permutation.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/design_point.h"
#include "cost/macro_model.h"
#include "tech/technology.h"
#include "util/json.h"

namespace sega {

/// Format version of the calibration artifact.  Bump whenever the line
/// schema or the meaning of any fitted parameter changes; loaders reject
/// other versions (a stale artifact must never silently reinterpret).
inline constexpr int kCalibrationFormatVersion = 1;

/// One corpus point: a design point plus its *measured* (RTL-traced)
/// metrics.  The analytic side is recomputed by the fitter, so a corpus is
/// exactly what `validate` already produces per knee.
struct CalibrationSample {
  DesignPoint point;
  MacroMetrics measured;
};

/// Per-metric fit summary: the max |rel-err| envelope against the measured
/// corpus before and after calibration, and the fitted scale.
struct CalibrationMetricFit {
  double envelope_before = 0.0;
  double envelope_after = 0.0;
  double scale = 1.0;
  bool module_factors_kept = true;  ///< false: the envelope guard reset them
};

/// The fitted parameters (the MetricCorrection base, macro_model.h) plus
/// the identity that fingerprints them.  A default-constructed Calibration
/// is the identity correction — applying it reproduces the uncalibrated
/// model bit-for-bit.
class Calibration : public MetricCorrection {
 public:
  int format_version = kCalibrationFormatVersion;
  std::string model;       ///< fitted model's model_name() — "analytic"
  int model_version = 0;   ///< fitted model's model_version()
  std::string techlib;     ///< full serialized technology (write_techlib)
  EvalConditions conditions;
  std::int64_t corpus_size = 0;

  /// The exact artifact bytes `save_calibration` writes — canonical, so the
  /// digest is a pure function of the parameters + identity.
  std::string serialize() const;

  /// FNV-1a (32-bit, "%08x") over serialize() — the content digest that,
  /// with format_version, joins memo and checkpoint fingerprints.
  std::string digest() const;

  /// {"version": <format_version>, "digest": "<digest()>"} — the fingerprint
  /// fragment embedded in cost-memo headers and sweep config fingerprints.
  Json fingerprint() const;

  bool operator==(const Calibration& other) const;
};

/// Fit a Calibration for (tech, cond) over @p corpus.  Hard errors (false +
/// *error): empty corpus, fewer than two distinct design points, or
/// non-finite or non-positive measured headline metrics.  On success
/// @p fit_report (when given) receives the before/after envelope per
/// headline metric, keyed "area" / "delay" / "energy" / "throughput".  By
/// construction envelope_after <= envelope_before for every metric.
std::optional<Calibration> fit_calibration(
    const Technology& tech, const EvalConditions& cond,
    std::vector<CalibrationSample> corpus, std::string* error,
    std::map<std::string, CalibrationMetricFit>* fit_report = nullptr);

/// Atomically write the artifact (write_file_atomic).
bool save_calibration(const Calibration& cal, const std::string& path,
                      std::string* error);

/// Load and integrity-check an artifact: header marker + format version,
/// per-line "c" checksums, complete and well-typed module/scale lines,
/// finite positive parameters.  Any damage or version mismatch is a hard
/// error (nullopt + *error) — a calibration artifact is small normative
/// data of record, never a skip-and-recompute cache.
std::optional<Calibration> load_calibration(const std::string& path,
                                            std::string* error);

/// load_calibration plus a fingerprint match against the requesting context:
/// the artifact's model/model_version/techlib/conditions must equal what an
/// AnalyticCostModel over (tech, cond) would be fingerprinted with.  This is
/// the loader every CLI/spec entry point uses.
std::optional<Calibration> load_calibration_for(const std::string& path,
                                                const Technology& tech,
                                                const EvalConditions& cond,
                                                std::string* error);

}  // namespace sega
