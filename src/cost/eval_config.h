// EvalConfig — the one place evaluation identity lives.
//
// Which cost model prices a design point (§III: every candidate is priced
// through one model under the user's conditions) is fixed by four values:
// the backend, the operating conditions, the calibration artifact and the
// layout-stage toggle.  CompilerSpec and SweepSpec each hold one EvalConfig
// (ValidateSpec through its sweep), and everything that depends on the four
// values goes through it:
//
//   spec keys      parse_key / write_keys — one type-checked parser and
//                  one writer, shared by every spec type
//   CLI flags      apply_flags — --cost-model, --supply, --sparsity,
//                  --calibration, --layout
//   cost model     make_model — the resolver: loads and verifies the
//                  artifact, applies the rtl-takes-no-calibration rule,
//                  builds the model through make_cost_model
//   fingerprints   write_identity (sweep checkpoint header) and identity
//                  (serve's cache key and memo delta file name); the cost
//                  memo header is written by CostCache from the model the
//                  resolver built
//
// Adding a fifth value means changing this type and the fingerprint
// writers, not every layer in between.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "cost/cost_model.h"
#include "util/json.h"

namespace sega {

/// Outcome of offering one spec key to a key-group parser.
enum class SpecKey {
  kUnknown,  ///< not a key of this group; offer it to the next one
  kParsed,   ///< parsed and range-checked
  kInvalid,  ///< a key of this group with a bad value; *error says why
};

/// Type checks shared by the spec parsers: true when @p value has the
/// type, else false with a diagnostic naming @p key in *error.  A wrong
/// type must be a parse error, never a Json precondition abort.
bool check_spec_number(const std::string& key, const Json& value,
                       std::string* error);
bool check_spec_string(const std::string& key, const Json& value,
                       std::string* error);
bool check_spec_bool(const std::string& key, const Json& value,
                     std::string* error);

struct EvalConfig {
  /// Evaluation backend (spec key "cost_model", CLI --cost-model): the
  /// analytic Table II-VI model (default) or the measured RTL/STA/gate-sim
  /// reference.  The RTL backend is orders of magnitude slower per point —
  /// it elaborates and simulates every candidate — and is meant for
  /// cross-validation (`sega_dcim validate`) and small spaces.
  CostModelKind backend = CostModelKind::kAnalytic;

  /// Operating conditions (spec keys "supply_v" > 0, "sparsity" in [0, 1),
  /// "activity" in (0, 1]; CLI --supply, --sparsity).
  EvalConditions conditions;

  /// Calibration artifact (spec key "calibration_file", CLI --calibration);
  /// empty means the uncalibrated model.  When set, the analytic model
  /// evaluates through the fitted per-module factors and per-metric scales
  /// (docs/FORMATS.md "Calibration artifact JSONL"), and the artifact's
  /// version + digest — never its path — joins every fingerprint, so
  /// calibrated and uncalibrated state (or state under two different
  /// artifacts) never cross-loads.  The resolver hard-errors on a damaged
  /// artifact, one fitted for a different technology/conditions/model
  /// version, and on the rtl backend (the measurement it was fitted
  /// against).
  std::string calibration_file;

  /// Layout/interconnect cost stage (spec key "layout", CLI --layout):
  /// floorplan each evaluated macro and fold the HPWL-derived wire
  /// parasitics into delay and energy (cost/layout_cost.h).  Off by default.
  /// Every fingerprint gains its layout key only when enabled, so layout-on
  /// and layout-off state never cross-load while layout-off artifacts stay
  /// byte-identical to builds that predate the stage.
  bool layout = false;

  /// Parse one spec key: "cost_model", "supply_v", "sparsity", "activity",
  /// "calibration_file" or "layout".
  SpecKey parse_key(const std::string& key, const Json& value,
                    std::string* error);

  /// Write the spec keys (the inverse of parse_key): "cost_model",
  /// "supply_v", "sparsity" and "activity" always; "layout" only when
  /// enabled and "calibration_file" only when set.
  void write_keys(Json* j) const;

  /// write_keys as it enters a fingerprint: the artifact's identity
  /// (Calibration::fingerprint(), under "calibration") replaces its path —
  /// renaming an artifact is legitimate, editing it is not.  @p cal is the
  /// artifact make_model resolved (null when uncalibrated).
  void write_identity(Json* j, const Calibration* cal) const;

  /// Apply whichever of --cost-model, --supply, --sparsity, --calibration
  /// and --layout are present in @p flags (each command's known-flag list
  /// decides which it accepts); absent flags keep the spec's values.  False
  /// with the CLI's diagnostic in *error on a bad value.
  bool apply_flags(const std::map<std::string, std::string>& flags,
                   std::string* error);

  /// The resolver: load and verify calibration_file against @p tech and
  /// the conditions, then build the model through make_cost_model.  Null
  /// with *error set for the rtl backend with an artifact
  /// (kRtlCalibrationError, checked before the file is touched) and for an
  /// artifact that fails to load or verify — a stale or wrong calibration
  /// must never silently shape results.  The model keeps a pointer to
  /// @p tech; the technology must outlive it.
  std::unique_ptr<CostModel> make_model(const Technology& tech,
                                        std::string* error) const;

  /// One string naming the resolved config: backend, conditions (%.17g),
  /// the artifact digest when @p cal is set, "layout" when enabled.  Equal
  /// strings mean interchangeable models — serve keys its shared caches by
  /// it, and its FNV-1a names their memo delta files.
  std::string identity(const Calibration* cal) const;
};

}  // namespace sega
