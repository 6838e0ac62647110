// Analytic-vs-RTL cross-validation of the cost engine (`sega_dcim
// validate`).
//
// The analytic model is the objective function of every DSE and sweep in
// the system; the RTL model (cost/rtl_cost_model.h) measures the same
// quantities from the generated hardware.  This harness quantifies how far
// apart they are where it matters: at the *Pareto-knee points* a user would
// actually fabricate.  For each (Wstore, precision) cell of a grid it
//
//   1. runs the normal analytic DSE (the sweep engine — parallel, cached,
//      deterministic) and takes the knee-distilled representative,
//   2. evaluates that knee through BOTH models (the RTL side batched on the
//      thread pool and composable with a persistent RTL memo, so warm
//      reruns elaborate nothing),
//   3. reports per-metric divergence and gates it against a tolerance.
//
// Gate semantics (per knee, parameterized by --tolerance t):
//
//   area        |rtl - analytic| / analytic <= t.  The census is the same
//               quantity both sides count; they must agree tightly.
//   delay       rtl/analytic in (0, 1 + t].  The closed forms are a
//               documented *conservative envelope* of the real critical
//               path (carry chains overlap between adder-tree levels, the
//               shifter model is a safe over-approximation — see
//               test_rtl_sta), so the gate is envelope validity: STA must
//               never exceed the model's clock period beyond tolerance.
//   energy      rtl/bound in (0, 1 + t], where bound is the analytic energy
//               *before* its activity/sparsity derating — one switching
//               event per cell per cycle.  Measured toggles must sit under
//               that physical envelope (the measured side realizes sparsity
//               in the workload, whose toggles do not drop linearly, so the
//               derated analytic value is not a bound), and a dead datapath
//               (ratio 0) is a harness error.
//   throughput  rtl/analytic >= 1 / (1 + t).  Throughput scales as 1/delay,
//               so the model is a safe *lower* bound: the hardware must
//               deliver at least the promised TOPS (beyond tolerance).
//
// Relative error is reported for every metric regardless of which gate
// applies, so the report doubles as a conservatism dashboard.
#pragma once

#include "compiler/sweep.h"
#include "cost/calibrate.h"

namespace sega {

struct ValidateSpec {
  /// The knee-point grid, DSE configuration and evaluation config.
  /// Defaults to a small grid (the RTL side elaborates and gate-simulates
  /// every knee): one Wstore column across the INT8 / FP16 / FP32 corners.
  /// sweep.eval.backend is ignored — validate always runs analytic DSE and
  /// compares against RTL.
  ///
  /// sweep.eval.calibration_file (spec key "calibration_file", CLI
  /// --calibration) is the artifact the *comparison* runs under; empty
  /// compares the uncalibrated model.  It never reaches the inner sweep:
  /// knee points are always selected by the uncalibrated analytic DSE, so
  /// the knee set, the RTL measurements, and the inner sweep's
  /// checkpoint/memo are identical with and without an artifact — a
  /// calibrated validate reuses a warm RTL memo with zero new elaborations,
  /// and only the analytic column of the comparison changes.  The gates
  /// change too: a calibrated model is a best fit centered on the
  /// measurements, not a one-sided envelope, so every metric gates on the
  /// symmetric relative error <= tolerance instead of the envelope bounds
  /// above.  Resolving hard-errors on a damaged or mismatched artifact.
  SweepSpec sweep;

  /// Gate for the relative-error metrics and the energy-ratio upper bound.
  double tolerance = 0.25;

  /// Persistent memo for the RTL model's knee evaluations (the analytic
  /// side persists via sweep.cache_file).  Separate files are required —
  /// the two backends' fingerprints never match.
  std::string rtl_cache_file;

  /// When non-null, measure the knees through this externally owned RTL
  /// cache (the serve daemon's warm cross-client cache) instead of a local
  /// model, and skip rtl_cache_file load/save (the owner persists).
  /// Precondition: wraps an RTL-backend model of the same technology and
  /// conditions.  The report's RTL work counters then cover this request
  /// only (deltas of the shared counters; approximate when other requests
  /// evaluate concurrently).  Never serialized — to_json() omits it.
  CostCache* shared_rtl_cache = nullptr;

  ValidateSpec();

  /// Parse from JSON: every sweep spec key (wstores, precisions, seed, ...)
  /// plus "tolerance" and "rtl_cache_file".  Unknown keys are rejected.
  static std::optional<ValidateSpec> from_json(const Json& json,
                                               std::string* error = nullptr);
  Json to_json() const;
};

/// One knee point's comparison.
struct ValidateRow {
  std::int64_t wstore = 0;
  Precision precision;
  DesignPoint knee;
  MacroMetrics analytic;
  MacroMetrics rtl;

  double area_rel_err = 0.0;        ///< |rtl - analytic| / analytic, area_mm2
  double delay_rel_err = 0.0;       ///< ... delay_ns
  double throughput_rel_err = 0.0;  ///< ... throughput_tops
  double energy_rel_err = 0.0;      ///< ... energy_per_mvm_nj
  double delay_ratio = 0.0;         ///< rtl / analytic delay (gated bound)
  double energy_ratio = 0.0;        ///< rtl / analytic activity=1 energy
                                    ///< envelope (gated bound)
  double throughput_ratio = 0.0;    ///< rtl / analytic TOPS (gated bound)
  bool pass = false;
};

struct ValidateReport {
  std::vector<ValidateRow> rows;
  double tolerance = 0.0;

  /// Digest of the calibration artifact the analytic column was evaluated
  /// under; empty for the uncalibrated model.  to_json() emits the
  /// "calibration" key (and render() its provenance line) only when
  /// non-empty, so uncalibrated output stays byte-identical to
  /// pre-calibration builds.
  std::string calibration;

  /// RTL-side work accounting: a warm rtl_cache_file rerun reports
  /// rtl_elaborations == 0 (every knee served from the memo).
  std::uint64_t rtl_elaborations = 0;
  std::uint64_t rtl_cache_hits = 0;
  std::uint64_t rtl_cache_misses = 0;

  /// True iff every row passes its gates.
  bool pass() const;
  /// Rows over tolerance.
  std::size_t failures() const;

  /// Machine-readable report: tolerance, per-row metrics/errors, and the
  /// worst offender per gated metric.
  Json to_json() const;
  /// CSV: one row per knee with both models' metrics and the divergences.
  std::string to_csv() const;
  /// Human-readable divergence table + verdict.
  std::string render() const;
};

/// Run the cross-validation.  Errors (empty grid cells are fine; checkpoint
/// or memo problems, or an RTL memo with a mismatched fingerprint, are not)
/// set *error and return an empty report when @p error is non-null, and
/// abort otherwise — mirroring run_sweep's contract.
ValidateReport run_validate(const Compiler& compiler, const ValidateSpec& spec,
                            std::string* error = nullptr);

/// The `validate --calibrate` product: the uncalibrated comparison, the fit,
/// and the same knees re-compared through the freshly calibrated model.
/// By the fitter's envelope guard, for every metric the after-envelope
/// (max |rel-err| across the knee corpus) is <= the before-envelope.
struct CalibrationReport {
  ValidateReport before;  ///< uncalibrated analytic vs RTL
  ValidateReport after;   ///< calibrated analytic vs the same RTL rows
  /// Per-metric fit summary, keyed "area" / "delay" / "energy" /
  /// "throughput" (fit_calibration's report).
  std::map<std::string, CalibrationMetricFit> fits;
  std::string artifact_path;  ///< where the artifact was saved
  std::string digest;         ///< its content digest
  std::int64_t corpus_size = 0;

  /// Verdict of the *calibrated* comparison — `validate --calibrate` exits
  /// with the same codes as `validate`, judged on the model it just fitted.
  bool pass() const { return after.pass(); }

  Json to_json() const;
  /// CSV: one row per metric with the before/after envelopes and the scale.
  std::string to_csv() const;
  /// Human-readable fit summary + the calibrated divergence table.
  std::string render() const;
};

/// Fit a calibration over the validate grid's measured knee corpus, save the
/// artifact to @p artifact_out (atomically), and re-compare the knees
/// through the calibrated model.  spec.sweep.eval.calibration_file must be
/// empty (a fresh fit and a preloaded artifact are mutually exclusive).
/// Errors — sweep/memo failures, an empty corpus, a rank-deficient fit, an
/// unwritable artifact — follow run_validate's contract: *error + nullopt
/// when @p error is non-null, abort otherwise.
std::optional<CalibrationReport> run_validate_calibrate(
    const Compiler& compiler, const ValidateSpec& spec,
    const std::string& artifact_out, std::string* error = nullptr);

}  // namespace sega
