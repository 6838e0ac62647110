// NSGA-II — the paper's MOGA design-space explorer (§III-B.2).
//
// The genome is the design space's (log2 N, log2 H, k) coordinate; L is
// derived from the storage equality constraint, so every decoded individual
// is feasible by construction.  Objectives are the eq. (2)/(3) vector
// [area, delay, energy, -throughput] in minimization form.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/space.h"
#include "dse/pareto.h"

namespace sega {

class CostModel;

struct Nsga2Options {
  int population = 64;
  int generations = 64;
  double crossover_prob = 0.9;
  double mutation_prob = 0.35;  ///< per-gene mutation probability
  std::uint64_t seed = 1;

  /// Worker threads for candidate evaluation.  0 = auto (the SEGA_THREADS
  /// environment variable, else hardware concurrency); 1 = serial.  The
  /// result is bit-identical for every thread count: genome generation stays
  /// on one RNG stream and evaluations are pure functions reduced in a fixed
  /// order.
  int threads = 0;
};

/// Statistics of one NSGA-II run.
struct Nsga2Stats {
  int generations_run = 0;
  std::int64_t evaluations = 0;  ///< design points handed to the model
};

/// Largest chunk of design points a DSE pool task hands the cost model as
/// one evaluate_batch call; it bounds per-task scratch.  A loop that runs
/// inline takes whole chunks of this size, so a serial NSGA-II fold reaches
/// the model (and a CostCache's locks) as one call.  Shared by the NSGA-II
/// inner loop and the explorer baselines so the two hot paths chunk
/// identically.
inline constexpr std::size_t kDseEvalChunk = 64;

/// Run NSGA-II over @p space, minimizing MacroMetrics::objectives() under
/// @p model.  Candidate batches are deduplicated, split into contiguous
/// chunks and evaluated chunk-per-task on the pool through
/// CostModel::evaluate_batch.  Returns the final non-dominated set of
/// *distinct* design points (duplicates removed).  @p stats is optional.
std::vector<DesignPoint> nsga2_optimize(const DesignSpace& space,
                                        const CostModel& model,
                                        const Nsga2Options& options,
                                        Nsga2Stats* stats = nullptr);

}  // namespace sega
