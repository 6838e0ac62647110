// SEGA-DCIM top-level compiler (Fig. 4): spec -> MOGA design-space
// exploration -> user distillation -> template-based generation (netlist +
// layout) -> reports.
#pragma once

#include <chrono>

#include "compiler/spec.h"
#include "dse/explorer.h"
#include "layout/def_writer.h"
#include "layout/floorplan.h"
#include "rtl/macro_builder.h"
#include "rtl/verilog.h"

namespace sega {

/// One distilled design after generation.
struct SelectedDesign {
  EvaluatedDesign design;
  std::string verilog;       ///< empty when generation disabled
  MacroLayout layout;        ///< zero-sized when generation disabled
  std::string def;           ///< empty unless generate_def
  std::string selection_reason;  ///< which distillation rule picked it
};

struct CompilerResult {
  CompilerSpec spec;
  std::vector<EvaluatedDesign> pareto_front;
  std::vector<SelectedDesign> selected;
  Nsga2Stats dse_stats;
  double dse_seconds = 0.0;
  double generation_seconds = 0.0;

  /// Machine-readable compilation report.
  Json report() const;
  /// Human-readable summary (front table + selected designs).
  std::string summary() const;
};

class Compiler {
 public:
  explicit Compiler(Technology tech);

  const Technology& technology() const { return tech_; }

  /// Run the full pipeline.  When spec.cache_file is set, an internal cost
  /// cache is loaded from that memo file before the DSE (if it exists) and
  /// saved back after — repeated runs over overlapping spaces skip the
  /// evaluations a previous process already paid for.  A cache-file *load*
  /// failure (unreadable, fingerprint mismatch) aborts — stale numbers must
  /// never mix into results; a *save* failure only warns, since the
  /// computed result must not be discarded over an auxiliary write error.
  CompilerResult run(const CompilerSpec& spec) const;

  /// Run the full pipeline with a shared memoizing cost cache (e.g. one
  /// cache across every cell of a grid sweep).  @p cache must wrap the
  /// model spec.eval resolves to over this compiler's technology; when
  /// non-null it takes precedence over spec.eval and spec.cache_file (the
  /// owner of a shared cache decides when to persist it).  Thread-safe for
  /// concurrent calls sharing one cache.  Resolution and cache-file load
  /// failures set *error and return an empty result when @p error is
  /// non-null, and abort otherwise; save failures warn on stderr and still
  /// return the result.
  CompilerResult run(const CompilerSpec& spec, CostCache* cache,
                     std::string* error = nullptr) const;

  /// Distillation as a standalone step (exposed for tests/ablations):
  /// indices into @p front selected by @p policy, best first, at most
  /// @p max_selected entries.
  static std::vector<std::size_t> distill(
      const std::vector<EvaluatedDesign>& front, DistillPolicy policy,
      int max_selected);

 private:
  CompilerResult run_impl(const CompilerSpec& spec, CostCache& cache) const;

  Technology tech_;
};

}  // namespace sega
