#include "dse/pareto.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/assert.h"
#include "util/rng.h"

namespace sega {

namespace {

bool row_dominates(const double* u, const double* v, std::size_t m) {
  bool strictly_better = false;
  for (std::size_t i = 0; i < m; ++i) {
    if (u[i] > v[i]) return false;
    if (u[i] < v[i]) strictly_better = true;
  }
  return strictly_better;
}

bool row_less(const double* u, const double* v, std::size_t m) {
  return std::lexicographical_compare(u, u + m, v, v + m);
}

/// True when some row of @p front dominates @p p.  Checked newest-first,
/// because lex-close rows are the likeliest dominators (the standard ENS
/// heuristic).
bool front_dominates(const std::vector<const double*>& front, const double* p,
                     std::size_t m) {
  for (auto it = front.rbegin(); it != front.rend(); ++it) {
    if (row_dominates(*it, p, m)) return true;
  }
  return false;
}

/// Row-major copy of @p points, which must all have the same non-zero size.
std::vector<double> flatten(const std::vector<Objectives>& points,
                            std::size_t* cols) {
  *cols = points.empty() ? 0 : points[0].size();
  std::vector<double> flat;
  flat.reserve(points.size() * *cols);
  for (const Objectives& p : points) {
    SEGA_EXPECTS(p.size() == *cols && !p.empty());
    flat.insert(flat.end(), p.begin(), p.end());
  }
  return flat;
}

std::vector<std::size_t> iota_indices(std::size_t n) {
  std::vector<std::size_t> indices(n);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  return indices;
}

}  // namespace

bool dominates(const Objectives& u, const Objectives& v) {
  SEGA_EXPECTS(u.size() == v.size() && !u.empty());
  return row_dominates(u.data(), v.data(), u.size());
}

std::vector<std::size_t> non_dominated_indices(
    const std::vector<Objectives>& points) {
  std::size_t cols = 0;
  const std::vector<double> flat = flatten(points, &cols);
  return non_dominated_indices(ObjectiveRows{flat.data(), points.size(), cols});
}

std::vector<std::size_t> non_dominated_indices(const ObjectiveRows& rows) {
  const std::size_t m = rows.cols;
  SEGA_EXPECTS(rows.rows == 0 || m > 0);
  std::vector<std::size_t> order = iota_indices(rows.rows);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return row_less(rows.row(a), rows.row(b), m);
  });
  // A dominated row has a non-dominated dominator, and it precedes the row
  // in lexicographic order, so checking the non-dominated rows found so far
  // is enough.  Equal rows do not dominate each other and all survive.
  std::vector<const double*> kept;
  std::vector<std::size_t> out;
  for (const std::size_t i : order) {
    const double* p = rows.row(i);
    if (front_dominates(kept, p, m)) continue;
    kept.push_back(p);
    out.push_back(i);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t non_dominated_ranks(const ObjectiveRows& rows,
                                Span<const std::size_t> members,
                                Span<int> ranks, ParetoScratch* scratch) {
  const std::size_t n = members.size();
  const std::size_t m = rows.cols;
  SEGA_EXPECTS(ranks.size() == n);
  if (n == 0) return 0;
  SEGA_EXPECTS(m > 0);
  std::vector<const double*>& row = scratch->row;
  row.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    SEGA_EXPECTS(members.data()[j] < rows.rows);
    row[j] = rows.row(members.data()[j]);
  }

  // Lexicographic processing order.  Any dominator of a row strictly
  // precedes it in this order, so every row's potential dominators are
  // placed before it and placed ranks are final.  Equal rows are adjacent,
  // and a row equal to the one before it takes that row's rank.
  std::vector<std::size_t>& order = scratch->order;
  order.resize(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return row_less(row[a], row[b], m);
  });

  std::vector<std::vector<const double*>>& fronts = scratch->fronts;
  std::size_t placed = 0;
  const double* prev = nullptr;
  int prev_rank = 0;
  for (const std::size_t j : order) {
    const double* p = row[j];
    if (prev != nullptr && std::equal(p, p + m, prev)) {
      ranks.data()[j] = prev_rank;
      continue;
    }
    // Smallest k with no dominator in front k; "has a dominator" is true on
    // a prefix of fronts (transitivity), so binary search applies.
    std::size_t lo = 0;
    std::size_t hi = placed;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (front_dominates(fronts[mid], p, m)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == placed) {
      if (fronts.size() == placed) fronts.emplace_back();
      fronts[placed++].clear();
    }
    fronts[lo].push_back(p);
    prev = p;
    prev_rank = static_cast<int>(lo);
    ranks.data()[j] = prev_rank;
  }
  return placed;
}

std::vector<std::vector<std::size_t>> fast_non_dominated_sort(
    const std::vector<Objectives>& points) {
  std::size_t cols = 0;
  const std::vector<double> flat = flatten(points, &cols);
  const std::vector<std::size_t> members = iota_indices(points.size());
  std::vector<int> ranks(points.size());
  ParetoScratch scratch;
  const std::size_t count = non_dominated_ranks(
      ObjectiveRows{flat.data(), points.size(), cols}, members, ranks,
      &scratch);
  // Bucket by ascending original index (the public ordering contract).
  std::vector<std::vector<std::size_t>> fronts(count);
  for (std::size_t i = 0; i < points.size(); ++i) {
    fronts[static_cast<std::size_t>(ranks[i])].push_back(i);
  }
  return fronts;
}

std::vector<std::vector<std::size_t>> fast_non_dominated_sort_baseline(
    const std::vector<Objectives>& points) {
  const std::size_t n = points.size();
  std::vector<std::vector<std::size_t>> dominated_by(n);
  std::vector<int> domination_count(n, 0);
  std::vector<std::vector<std::size_t>> fronts;

  std::vector<std::size_t> first;
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      if (p == q) continue;
      if (dominates(points[p], points[q])) {
        dominated_by[p].push_back(q);
      } else if (dominates(points[q], points[p])) {
        ++domination_count[p];
      }
    }
    if (domination_count[p] == 0) first.push_back(p);
  }
  fronts.push_back(std::move(first));

  while (!fronts.back().empty()) {
    std::vector<std::size_t> next;
    for (const std::size_t p : fronts.back()) {
      for (const std::size_t q : dominated_by[p]) {
        if (--domination_count[q] == 0) next.push_back(q);
      }
    }
    fronts.push_back(std::move(next));
  }
  fronts.pop_back();  // drop the trailing empty front
  return fronts;
}

std::vector<double> crowding_distances(const std::vector<Objectives>& front) {
  std::size_t cols = 0;
  const std::vector<double> flat = flatten(front, &cols);
  const std::vector<std::size_t> members = iota_indices(front.size());
  std::vector<double> dist(front.size());
  ParetoScratch scratch;
  crowding_distances(ObjectiveRows{flat.data(), front.size(), cols}, members,
                     dist, &scratch);
  return dist;
}

void crowding_distances(const ObjectiveRows& rows,
                        Span<const std::size_t> members, Span<double> out,
                        ParetoScratch* scratch) {
  const std::size_t n = members.size();
  SEGA_EXPECTS(out.size() == n);
  double* dist = out.data();
  std::fill(dist, dist + n, 0.0);
  if (n == 0) return;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double>& column = scratch->column;
  std::vector<std::size_t>& order = scratch->order;
  column.resize(n);
  order.resize(n);
  const double* col = column.data();

  for (std::size_t obj = 0; obj < rows.cols; ++obj) {
    // Gather the objective's column so the sort reads contiguous keys.
    for (std::size_t j = 0; j < n; ++j) {
      SEGA_EXPECTS(members.data()[j] < rows.rows);
      column[j] = rows.row(members.data()[j])[obj];
    }
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [col](std::size_t a, std::size_t b) { return col[a] < col[b]; });
    dist[order.front()] = kInf;
    dist[order.back()] = kInf;
    const double span = col[order.back()] - col[order.front()];
    if (span <= 0.0) continue;
    for (std::size_t i = 1; i + 1 < n; ++i) {
      dist[order[i]] += (col[order[i + 1]] - col[order[i - 1]]) / span;
    }
  }
}

double hypervolume_2d(const std::vector<Objectives>& front,
                      const Objectives& ref) {
  SEGA_EXPECTS(ref.size() == 2);
  std::vector<Objectives> pts;
  for (const auto& p : front) {
    SEGA_EXPECTS(p.size() == 2);
    if (p[0] < ref[0] && p[1] < ref[1]) pts.push_back(p);
  }
  if (pts.empty()) return 0.0;
  std::sort(pts.begin(), pts.end());
  double volume = 0.0;
  double prev_y = ref[1];
  for (const auto& p : pts) {
    if (p[1] < prev_y) {
      volume += (ref[0] - p[0]) * (prev_y - p[1]);
      prev_y = p[1];
    }
  }
  return volume;
}

double hypervolume_monte_carlo(const std::vector<Objectives>& front,
                               const Objectives& ref, int samples,
                               std::uint64_t seed) {
  SEGA_EXPECTS(samples > 0);
  if (front.empty()) return 0.0;
  const std::size_t m = ref.size();

  // Bounding box: [component-wise ideal, ref].
  Objectives ideal = front[0];
  for (const auto& p : front) {
    SEGA_EXPECTS(p.size() == m);
    for (std::size_t i = 0; i < m; ++i) ideal[i] = std::min(ideal[i], p[i]);
  }
  double box = 1.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double side = ref[i] - ideal[i];
    if (side <= 0.0) return 0.0;
    box *= side;
  }

  Rng rng(seed);
  int dominated = 0;
  Objectives sample(m);
  for (int s = 0; s < samples; ++s) {
    for (std::size_t i = 0; i < m; ++i) {
      sample[i] = ideal[i] + rng.uniform() * (ref[i] - ideal[i]);
    }
    for (const auto& p : front) {
      bool dom = true;
      for (std::size_t i = 0; i < m; ++i) {
        if (p[i] > sample[i]) {
          dom = false;
          break;
        }
      }
      if (dom) {
        ++dominated;
        break;
      }
    }
  }
  return box * static_cast<double>(dominated) / static_cast<double>(samples);
}

}  // namespace sega
