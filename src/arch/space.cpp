#include "arch/space.h"

#include "util/assert.h"
#include "util/math.h"

namespace sega {

DesignSpace::DesignSpace(std::int64_t wstore, Precision precision,
                         SpaceConstraints limits)
    : wstore_(wstore), precision_(std::move(precision)), limits_(limits) {
  SEGA_EXPECTS(wstore_ > 0);
  const std::int64_t bw = precision_.weight_bits();
  // N must be a power of two with N >= min_n_over_bw * Bw.
  min_n_exp_ = ceil_log2(
      static_cast<std::uint64_t>(limits_.min_n_over_bw * bw));
  max_n_exp_ = ilog2(static_cast<std::uint64_t>(limits_.max_n));
  max_h_exp_ = ilog2(static_cast<std::uint64_t>(limits_.max_h));
}

bool DesignSpace::genome_range_empty() const {
  return min_n_exp_ > max_n_exp_ || min_h_exp() > max_h_exp_;
}

std::int64_t DesignSpace::max_k() const { return precision_.input_bits(); }

std::optional<DesignPoint> DesignSpace::decode(int n_exp, int h_exp,
                                               std::int64_t k) const {
  if (n_exp < min_n_exp_ || n_exp > max_n_exp_) return std::nullopt;
  if (h_exp < min_h_exp() || h_exp > max_h_exp_) return std::nullopt;
  if (k < 1 || k > max_k()) return std::nullopt;

  const std::int64_t bw = precision_.weight_bits();
  const std::int64_t n = static_cast<std::int64_t>(pow2(n_exp));
  const std::int64_t h = static_cast<std::int64_t>(pow2(h_exp));
  const std::int64_t bits = wstore_ * bw;
  if (bits % (n * h) != 0) return std::nullopt;
  const std::int64_t l = bits / (n * h);
  if (l < 1 || l > limits_.max_l) return std::nullopt;

  DesignPoint dp;
  dp.arch = arch_for(precision_);
  dp.precision = precision_;
  dp.n = n;
  dp.h = h;
  dp.l = l;
  dp.k = k;
  const Validity v = validate_design(dp, wstore_, limits_);
  if (!v.ok) return std::nullopt;
  return dp;
}

std::vector<DesignPoint> DesignSpace::enumerate_all() const {
  std::vector<DesignPoint> out;
  for (int ne = min_n_exp_; ne <= max_n_exp_; ++ne) {
    for (int he = min_h_exp(); he <= max_h_exp_; ++he) {
      for (std::int64_t k = 1; k <= max_k(); ++k) {
        if (auto dp = decode(ne, he, k)) out.push_back(*dp);
      }
    }
  }
  return out;
}

std::optional<DesignPoint> DesignSpace::sample(Rng& rng,
                                               int max_attempts) const {
  if (genome_range_empty()) return std::nullopt;
  for (int i = 0; i < max_attempts; ++i) {
    const int ne = static_cast<int>(rng.uniform_int(min_n_exp_, max_n_exp_));
    const int he = static_cast<int>(rng.uniform_int(min_h_exp(), max_h_exp_));
    const std::int64_t k = rng.uniform_int(1, max_k());
    if (auto dp = decode(ne, he, k)) return dp;
  }
  // Sparse feasible region: fall back to enumeration.
  const auto all = enumerate_all();
  if (all.empty()) return std::nullopt;
  return all[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(all.size()) - 1))];
}

}  // namespace sega
