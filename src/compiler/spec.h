// CompilerSpec — the user-facing specification of one compilation run
// ("the users can give the number of weights, data precision, and any other
// requirements according to their applications", §III-A), plus its JSON
// serialization for file-driven invocations.
#pragma once

#include <optional>
#include <string>

#include "arch/space.h"
#include "cost/eval_config.h"
#include "dse/nsga2.h"
#include "tech/technology.h"
#include "util/json.h"

namespace sega {

/// User-distillation policy applied to the Pareto front before the
/// (expensive) generation step.
enum class DistillPolicy {
  kKnee,          ///< closest to the normalized ideal point (default)
  kMinArea,
  kMinDelay,
  kMinEnergy,
  kMaxThroughput,
  kAll,           ///< generate every front member (bounded by max_selected)
};

const char* distill_policy_name(DistillPolicy policy);
std::optional<DistillPolicy> distill_policy_from_name(const std::string& name);

/// Parse one of the keys CompilerSpec and SweepSpec share, offering it in
/// turn to EvalConfig::parse_key, the SpaceConstraints keys ("max_l",
/// "max_h", "max_n" — each a positive integer) and the Nsga2Options keys
/// ("population" >= 4, "generations" >= 1, "seed", "threads" >= 0).  Every
/// value is type- and range-checked here, so a bad one is a diagnostic,
/// never a crash inside the DSE.
SpecKey parse_shared_spec_key(const std::string& key, const Json& value,
                              EvalConfig* eval, SpaceConstraints* limits,
                              Nsga2Options* dse, std::string* error);

struct CompilerSpec {
  std::int64_t wstore = 8192;
  Precision precision = precision_int8();
  /// Backend, conditions, calibration artifact and layout stage.
  EvalConfig eval;
  SpaceConstraints limits;
  Nsga2Options dse;
  DistillPolicy distill = DistillPolicy::kKnee;
  int max_selected = 3;
  bool generate_rtl = true;
  bool generate_layout = true;
  bool generate_def = false;

  /// Persistent cost-cache memo file; empty disables persistence.  Loaded
  /// (if present) before the DSE and saved back after, so repeated runs
  /// over overlapping spaces skip paid-for evaluations across processes.
  /// The file is fingerprinted with the evaluation identity (eval) and the
  /// technology; a mismatched memo is an error, never silently mixed in.
  /// Does not change any result — the cache memoizes a pure function.
  std::string cache_file;

  /// Parse from JSON, e.g.:
  ///   {"wstore": 8192, "precision": "BF16", "supply_v": 0.9,
  ///    "sparsity": 0.1, "distill": "knee", "seed": 7}
  /// Unknown keys are rejected (typos must not silently change a tapeout).
  static std::optional<CompilerSpec> from_json(const Json& json,
                                               std::string* error = nullptr);
  Json to_json() const;
};

}  // namespace sega
