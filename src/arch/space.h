// DesignSpace — the finite, enumerable domain of valid design points for a
// (Wstore, precision) specification.
//
// The explorer's genome is (log2 N, log2 H, k); L is derived from the
// equality constraint N*H*L = Wstore*Bw, which makes every decoded genome
// either exactly feasible or rejectable — the GA never wastes evaluations on
// storage-infeasible candidates.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/design_point.h"
#include "util/rng.h"

namespace sega {

class DesignSpace {
 public:
  DesignSpace(std::int64_t wstore, Precision precision,
              SpaceConstraints limits = {});

  std::int64_t wstore() const { return wstore_; }
  const Precision& precision() const { return precision_; }
  const SpaceConstraints& limits() const { return limits_; }

  /// Decode (n_exp, h_exp, k) to a validated design point; nullopt when the
  /// combination is infeasible (e.g. derived L not integral or out of range).
  std::optional<DesignPoint> decode(int n_exp, int h_exp,
                                    std::int64_t k) const;

  /// Inclusive genome bounds.  Limits tighter than the precision's minimum
  /// N (or a max_h below 2) leave a bound range empty: genome_range_empty()
  /// is then true and the space has no points.
  int min_n_exp() const { return min_n_exp_; }
  int max_n_exp() const { return max_n_exp_; }
  int min_h_exp() const { return 1; }
  int max_h_exp() const { return max_h_exp_; }
  std::int64_t max_k() const;
  bool genome_range_empty() const;

  /// Exhaustive enumeration of every valid design point (ground truth for
  /// testing the GA; the per-spec domain is a few thousand points at most).
  std::vector<DesignPoint> enumerate_all() const;

  /// Uniformly sample a valid design point; nullopt if the space is empty.
  std::optional<DesignPoint> sample(Rng& rng, int max_attempts = 256) const;

 private:
  std::int64_t wstore_;
  Precision precision_;
  SpaceConstraints limits_;
  int min_n_exp_;
  int max_n_exp_;
  int max_h_exp_;
};

}  // namespace sega
