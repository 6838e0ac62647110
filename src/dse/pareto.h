// Pareto-dominance utilities: dominance test (eq. (1) of the paper),
// non-dominated filtering, NSGA-II's fast non-dominated sort and crowding
// distance, and hypervolume indicators for comparing explorer quality.
//
// All objective vectors are in *minimization* form.  The filtering, sorting
// and crowding work happens in kernels over flat row-major objective rows
// (ObjectiveRows), which NSGA-II calls with scratch it reuses across
// generations; the std::vector<Objectives> forms copy into rows and call
// the same kernels.
#pragma once

#include <cstdint>
#include <vector>

#include "util/span.h"

namespace sega {

using Objectives = std::vector<double>;

/// A row-major block of objective vectors: row i is the `cols` values at
/// data + i * cols.  A non-owning view, like Span.
struct ObjectiveRows {
  /// A constructor, not an aggregate, so that an empty braced list still
  /// selects the std::vector<Objectives> overloads below.
  ObjectiveRows(const double* first, std::size_t row_count,
                std::size_t col_count)
      : data(first), rows(row_count), cols(col_count) {}

  const double* data;
  std::size_t rows;
  std::size_t cols;

  const double* row(std::size_t i) const { return data + i * cols; }
};

/// Buffers the flat kernels below reuse between calls, so a caller that
/// ranks repeatedly (NSGA-II, once per generation) allocates only while
/// its populations grow.  Contents between calls are unspecified.
struct ParetoScratch {
  std::vector<const double*> row;
  std::vector<std::size_t> order;
  std::vector<double> column;
  std::vector<std::vector<const double*>> fronts;
};

/// Pareto dominance (minimization): u dominates v iff u is no worse in every
/// objective and strictly better in at least one — eq. (1).
bool dominates(const Objectives& u, const Objectives& v);

/// Indices of the non-dominated points among @p points (first Pareto front),
/// ascending.
std::vector<std::size_t> non_dominated_indices(
    const std::vector<Objectives>& points);

/// Flat kernel behind the above: indices of the non-dominated rows of
/// @p rows, ascending.  Rows are visited in lexicographic order, in which
/// every dominator precedes what it dominates, and each is checked only
/// against the non-dominated rows found so far.
std::vector<std::size_t> non_dominated_indices(const ObjectiveRows& rows);

/// Non-dominated rank (0 = first front) of each member row: ranks[j] is the
/// front of row members[j] among the member rows, where front 0 is
/// non-dominated and front i + 1 is non-dominated once fronts 0..i are
/// removed.  Members may repeat a row, and distinct rows may be equal; each
/// distinct row vector is ranked once.  Returns the number of fronts.
///
/// Implementation: ENS-BS (efficient non-dominated sort with binary search,
/// Zhang et al. 2015).  Rows are pre-sorted lexicographically so a row can
/// only be dominated by rows already placed; its front is then found by
/// binary search over the existing fronts (front membership of a placed row
/// is final, and "front k contains a dominator" is monotone in k by
/// dominance transitivity).  This skips the O(n^2) dominated-by bookkeeping
/// of the textbook algorithm.
std::size_t non_dominated_ranks(const ObjectiveRows& rows,
                                Span<const std::size_t> members,
                                Span<int> ranks, ParetoScratch* scratch);

/// NSGA-II fast non-dominated sort: partitions all points into fronts
/// F1, F2, ... where F1 is non-dominated and Fi+1 is non-dominated once
/// F1..Fi are removed.  Every index appears in exactly one front, and each
/// front lists its indices in ascending order.  Ranks by
/// non_dominated_ranks().
std::vector<std::vector<std::size_t>> fast_non_dominated_sort(
    const std::vector<Objectives>& points);

/// Textbook Deb et al. 2002 dominance-count implementation (O(n^2 *
/// objectives) time and memory).  Kept as the reference oracle for
/// equivalence tests and benchmarks; produces the same partition as
/// fast_non_dominated_sort, though later fronts may list indices in a
/// different (traversal) order.
std::vector<std::vector<std::size_t>> fast_non_dominated_sort_baseline(
    const std::vector<Objectives>& points);

/// Crowding distance of each point within one front (Deb et al. 2002).
/// Boundary points of every objective get +infinity.
std::vector<double> crowding_distances(const std::vector<Objectives>& front);

/// Flat kernel behind the above: out[j] is the crowding distance of row
/// members[j] within the front the member rows form, in member order (the
/// order decides how equal values break ties).  Each objective's column is
/// gathered before it is sorted.
void crowding_distances(const ObjectiveRows& rows,
                        Span<const std::size_t> members, Span<double> out,
                        ParetoScratch* scratch);

/// Exact hypervolume for 2-objective fronts w.r.t. reference point @p ref
/// (every point must dominate ref).  Points not dominating ref contribute 0.
double hypervolume_2d(const std::vector<Objectives>& front,
                      const Objectives& ref);

/// Monte-Carlo hypervolume estimate for any dimension: the fraction of the
/// [ideal, ref] box dominated by the front, times the box volume.
/// Deterministic for a given @p seed.
double hypervolume_monte_carlo(const std::vector<Objectives>& front,
                               const Objectives& ref, int samples,
                               std::uint64_t seed);

}  // namespace sega
