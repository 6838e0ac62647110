#include "dse/nsga2.h"

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>

#include "cost/cost_model.h"
#include "util/assert.h"
#include "util/threadpool.h"

namespace sega {

namespace {

struct Genome {
  int n_exp = 0;
  int h_exp = 0;
  std::int64_t k = 1;
};

/// Dense genome ids over a space's genome box:
///   id = ((n_exp - min_n_exp) * h_span + (h_exp - min_h_exp)) * max_k
///        + (k - 1).
/// The id is lexicographic in (n_exp, h_exp, k), so walking ids upwards
/// visits genomes in that order.  Only in-range genomes have an id; the run
/// only asks for the ids of decoded genomes, which are in range.
class GenomeIds {
 public:
  explicit GenomeIds(const DesignSpace& space)
      : min_n_exp_(space.min_n_exp()),
        min_h_exp_(space.min_h_exp()),
        h_span_(static_cast<std::size_t>(space.max_h_exp() -
                                         space.min_h_exp() + 1)),
        max_k_(static_cast<std::size_t>(space.max_k())),
        count_(static_cast<std::size_t>(space.max_n_exp() - min_n_exp_ + 1) *
               h_span_ * max_k_) {}

  std::size_t count() const { return count_; }

  std::size_t of(const Genome& g) const {
    const std::size_t id =
        (static_cast<std::size_t>(g.n_exp - min_n_exp_) * h_span_ +
         static_cast<std::size_t>(g.h_exp - min_h_exp_)) *
            max_k_ +
        static_cast<std::size_t>(g.k - 1);
    SEGA_EXPECTS(id < count_);
    return id;
  }

 private:
  int min_n_exp_;
  int min_h_exp_;
  std::size_t h_span_;
  std::size_t max_k_;
  std::size_t count_;
};

/// A population member: its genome, its archive slot (which holds its
/// decoded point and objective row) and its NSGA-II rank and crowding.
struct Individual {
  Genome genome;
  std::size_t slot = 0;
  int rank = 0;
  double crowding = 0.0;
};

/// Decode with local repair: if the exact genome is infeasible (derived L
/// not integral or out of range), walk outward over neighbouring (n,h)
/// exponents until a feasible decode is found.
std::optional<DesignPoint> decode_with_repair(const DesignSpace& space,
                                              Genome* g) {
  if (auto dp = space.decode(g->n_exp, g->h_exp, g->k)) return dp;
  for (int radius = 1; radius <= 4; ++radius) {
    for (int dn = -radius; dn <= radius; ++dn) {
      for (int dh = -radius; dh <= radius; ++dh) {
        if (std::max(std::abs(dn), std::abs(dh)) != radius) continue;
        const int ne = g->n_exp + dn;
        const int he = g->h_exp + dh;
        if (auto dp = space.decode(ne, he, g->k)) {
          g->n_exp = ne;
          g->h_exp = he;
          return dp;
        }
      }
    }
  }
  return std::nullopt;
}

Genome random_genome(const DesignSpace& space, Rng& rng) {
  Genome g;
  g.n_exp = static_cast<int>(
      rng.uniform_int(space.min_n_exp(), space.max_n_exp()));
  g.h_exp = static_cast<int>(
      rng.uniform_int(space.min_h_exp(), space.max_h_exp()));
  g.k = rng.uniform_int(1, space.max_k());
  return g;
}

/// Archive of every distinct genome evaluated during the run.  The returned
/// front is the non-dominated subset of the archive, so information from any
/// generation is never lost (elitist archive, standard NSGA-II practice).
/// Slots are numbered in evaluation order: slot_of maps a genome id to its
/// slot, and each slot holds the decoded point and one row of the flat
/// row-major objective buffer.
struct Archive {
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::size_t kCols = 4;  ///< MacroMetrics::objectives()

  explicit Archive(std::size_t genome_ids) : slot_of(genome_ids, kNone) {}

  std::vector<std::size_t> slot_of;  ///< by genome id; kNone = not archived
  std::vector<DesignPoint> points;   ///< by slot
  std::vector<double> rows;          ///< objectives by slot, row-major

  std::size_t size() const { return points.size(); }
  ObjectiveRows objectives() const { return {rows.data(), size(), kCols}; }
};

/// One batch of feasible (genome, decoded point) candidates.  Batches are
/// produced serially — decode_with_repair consumes no randomness, so the RNG
/// stream is identical to the historical generate-and-evaluate-inline path —
/// and evaluated afterwards, possibly concurrently.
struct CandidateBatch {
  std::vector<Genome> genomes;
  std::vector<std::size_t> ids;
  std::vector<DesignPoint> points;

  std::size_t size() const { return genomes.size(); }
  void add(const Genome& g, std::size_t id, DesignPoint dp) {
    genomes.push_back(g);
    ids.push_back(id);
    points.push_back(std::move(dp));
  }
};

/// Fold a batch into the archive.  Genomes not yet archived take the next
/// slots in first-occurrence order (a taken slot marks the later copies of
/// a genome in the same batch), are evaluated in pool-chunked batches and
/// their objective rows appended in that same fixed order — so archive
/// contents and stats->evaluations are bit-identical for every thread count
/// and chunking.
void fold_batch(const CostModel& model, const CandidateBatch& batch,
                Archive* archive, Nsga2Stats* stats, ThreadPool& pool) {
  const std::size_t first = archive->size();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::size_t& slot = archive->slot_of[batch.ids[i]];
    if (slot != Archive::kNone) continue;
    slot = archive->size();
    archive->points.push_back(batch.points[i]);
  }
  const std::size_t cold = archive->size() - first;
  const DesignPoint* points = archive->points.data() + first;
  std::vector<MacroMetrics> metrics(cold);
  pool.parallel_for_chunks(
      cold, kDseEvalChunk, [&](std::size_t begin, std::size_t end) {
        model.evaluate_batch(
            Span<const DesignPoint>(points + begin, end - begin),
            Span<MacroMetrics>(metrics.data() + begin, end - begin));
      });
  for (const MacroMetrics& m : metrics) {
    const std::array<double, Archive::kCols> row = m.objectives();
    archive->rows.insert(archive->rows.end(), row.begin(), row.end());
  }
  stats->evaluations += static_cast<std::int64_t>(cold);
}

/// The batch as individuals of the (fully populated) archive.
std::vector<Individual> individuals_from(const CandidateBatch& batch,
                                         const Archive& archive) {
  std::vector<Individual> out(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    out[i].genome = batch.genomes[i];
    out[i].slot = archive.slot_of[batch.ids[i]];
  }
  return out;
}

/// Binary tournament on (rank, crowding).
const Individual& tournament(const std::vector<Individual>& pop, Rng& rng) {
  const auto pick = [&]() -> const Individual& {
    return pop[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pop.size()) - 1))];
  };
  const Individual& a = pick();
  const Individual& b = pick();
  if (a.rank != b.rank) return a.rank < b.rank ? a : b;
  return a.crowding >= b.crowding ? a : b;
}

Genome crossover(const Genome& a, const Genome& b, Rng& rng) {
  // Uniform per-gene crossover — genes are weakly coupled through the
  // derived-L constraint, so gene exchange explores well.
  Genome child;
  child.n_exp = rng.chance(0.5) ? a.n_exp : b.n_exp;
  child.h_exp = rng.chance(0.5) ? a.h_exp : b.h_exp;
  child.k = rng.chance(0.5) ? a.k : b.k;
  return child;
}

void mutate(Genome* g, const DesignSpace& space, double per_gene_prob,
            Rng& rng) {
  if (rng.chance(per_gene_prob)) {
    g->n_exp += rng.chance(0.5) ? 1 : -1;
    g->n_exp = std::clamp(g->n_exp, space.min_n_exp(), space.max_n_exp());
  }
  if (rng.chance(per_gene_prob)) {
    g->h_exp += rng.chance(0.5) ? 1 : -1;
    g->h_exp = std::clamp(g->h_exp, space.min_h_exp(), space.max_h_exp());
  }
  if (rng.chance(per_gene_prob)) {
    // k mixes small steps with occasional uniform resets to jump between
    // divisor regimes.
    if (rng.chance(0.3)) {
      g->k = rng.uniform_int(1, space.max_k());
    } else {
      g->k += rng.chance(0.5) ? 1 : -1;
      g->k = std::clamp<std::int64_t>(g->k, 1, space.max_k());
    }
  }
}

/// Non-dominated ranking and crowding of populations against the archive's
/// objective rows.  One instance serves a whole run, so its buffers are
/// allocated once and reused every generation.
class Ranking {
 public:
  /// Set the rank of every individual of @p pop and bucket the population
  /// by front, each front listing its indices ascending.
  void sort(const Archive& archive, std::vector<Individual>* pop) {
    const std::size_t n = pop->size();
    slots_.resize(n);
    ranks_.resize(n);
    for (std::size_t i = 0; i < n; ++i) slots_[i] = (*pop)[i].slot;
    const std::size_t fronts = non_dominated_ranks(
        archive.objectives(), slots_, ranks_, &scratch_);
    start_.assign(fronts + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      (*pop)[i].rank = ranks_[i];
      ++start_[static_cast<std::size_t>(ranks_[i]) + 1];
    }
    std::partial_sum(start_.begin(), start_.end(), start_.begin());
    by_front_.resize(n);
    cursor_.assign(start_.begin(), start_.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      by_front_[cursor_[static_cast<std::size_t>(ranks_[i])]++] = i;
    }
  }

  std::size_t fronts() const { return start_.size() - 1; }

  /// Indices of front @p f of the last sort(), ascending.
  Span<const std::size_t> front(std::size_t f) const {
    return Span<const std::size_t>(by_front_.data() + start_[f],
                                   start_[f + 1] - start_[f]);
  }

  /// Crowding of each of @p members (indices into @p pop forming one
  /// front), computed over the members in the order given.
  void crowd(const Archive& archive, Span<const std::size_t> members,
             std::vector<Individual>* pop) {
    const std::size_t n = members.size();
    slots_.resize(n);
    distances_.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      slots_[j] = (*pop)[members.data()[j]].slot;
    }
    crowding_distances(archive.objectives(), slots_, distances_, &scratch_);
    for (std::size_t j = 0; j < n; ++j) {
      (*pop)[members.data()[j]].crowding = distances_[j];
    }
  }

  /// Rank @p pop and give every individual its crowding within its front.
  void rank_population(const Archive& archive, std::vector<Individual>* pop) {
    sort(archive, pop);
    for (std::size_t f = 0; f < fronts(); ++f) crowd(archive, front(f), pop);
  }

  /// Environmental selection: the first @p size individuals of @p merged
  /// by (rank, crowding descending), ties in input order — fronts in rank
  /// order, each stable-sorted by its crowding.  Only the fronts that
  /// contribute survivors are crowded.
  ///
  /// Survivors keep the ranks they have in @p merged: truncating by rank
  /// keeps every dominator of a survivor, so ranking the survivors alone
  /// would give the same fronts.  Their crowding is recomputed, because
  /// each surviving front now lists its members in selection order, and the
  /// order decides how equal objective values break ties.
  void select(const Archive& archive, std::vector<Individual>* merged,
              std::size_t size, std::vector<Individual>* survivors) {
    sort(archive, merged);
    survivors->clear();
    for (std::size_t f = 0; f < fronts() && survivors->size() < size; ++f) {
      crowd(archive, front(f), merged);
      order_.assign(front(f).begin(), front(f).end());
      std::stable_sort(order_.begin(), order_.end(),
                       [&](std::size_t a, std::size_t b) {
                         return (*merged)[a].crowding > (*merged)[b].crowding;
                       });
      for (const std::size_t i : order_) {
        if (survivors->size() == size) break;
        survivors->push_back((*merged)[i]);
      }
    }
    positions_.resize(survivors->size());
    std::iota(positions_.begin(), positions_.end(), std::size_t{0});
    for (std::size_t begin = 0; begin < survivors->size();) {
      std::size_t end = begin + 1;
      while (end < survivors->size() &&
             (*survivors)[end].rank == (*survivors)[begin].rank) {
        ++end;
      }
      crowd(archive,
            Span<const std::size_t>(positions_.data() + begin, end - begin),
            survivors);
      begin = end;
    }
  }

 private:
  ParetoScratch scratch_;
  std::vector<std::size_t> slots_;
  std::vector<int> ranks_;
  std::vector<std::size_t> start_;
  std::vector<std::size_t> cursor_;
  std::vector<std::size_t> by_front_;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> positions_;
  std::vector<double> distances_;
};

}  // namespace

std::vector<DesignPoint> nsga2_optimize(const DesignSpace& space,
                                        const CostModel& model,
                                        const Nsga2Options& options,
                                        Nsga2Stats* stats) {
  SEGA_EXPECTS(options.population >= 4);
  SEGA_EXPECTS(options.generations >= 1);
  Rng rng(options.seed);
  Nsga2Stats local_stats;
  if (!stats) stats = &local_stats;

  // Default to the shared pool (one set of workers per process); a private
  // pool only for an explicit thread-count override.  A size-1 pool spawns
  // no workers and parallel_for runs inline, so the serial path is free.
  std::unique_ptr<ThreadPool> owned;
  if (options.threads > 0) owned = std::make_unique<ThreadPool>(options.threads);
  ThreadPool& pool = owned ? *owned : ThreadPool::global();

  if (space.genome_range_empty()) return {};
  const GenomeIds ids(space);

  // --- initial population ---
  Archive archive(ids.count());
  Ranking ranking;
  CandidateBatch init;
  for (int attempts = 0;
       static_cast<int>(init.size()) < options.population &&
       attempts < options.population * 64;
       ++attempts) {
    Genome g = random_genome(space, rng);
    if (auto dp = decode_with_repair(space, &g)) {
      init.add(g, ids.of(g), std::move(*dp));
    }
  }
  if (init.size() == 0) return {};
  fold_batch(model, init, &archive, stats, pool);
  std::vector<Individual> pop = individuals_from(init, archive);
  ranking.rank_population(archive, &pop);

  // --- generational loop ---
  std::vector<Individual> merged;
  for (int gen = 0; gen < options.generations; ++gen) {
    CandidateBatch batch;
    while (batch.size() < pop.size()) {
      const Individual& p1 = tournament(pop, rng);
      const Individual& p2 = tournament(pop, rng);
      Genome child = rng.chance(options.crossover_prob)
                         ? crossover(p1.genome, p2.genome, rng)
                         : p1.genome;
      mutate(&child, space, options.mutation_prob, rng);
      if (auto dp = decode_with_repair(space, &child)) {
        batch.add(child, ids.of(child), std::move(*dp));
      } else {
        // Infeasible even after repair: inject a random immigrant to keep
        // population pressure up.
        Genome imm = random_genome(space, rng);
        if (auto dpi = decode_with_repair(space, &imm)) {
          batch.add(imm, ids.of(imm), std::move(*dpi));
        }
      }
    }
    fold_batch(model, batch, &archive, stats, pool);
    const std::vector<Individual> offspring = individuals_from(batch, archive);

    // Environmental selection over parents + offspring.
    merged.swap(pop);
    merged.insert(merged.end(), offspring.begin(), offspring.end());
    ranking.select(archive, &merged,
                   static_cast<std::size_t>(options.population), &pop);
    ++stats->generations_run;
  }

  // --- extract the non-dominated subset of everything evaluated, in
  // genome-id order ---
  std::vector<std::size_t> slots;
  std::vector<double> rows;
  slots.reserve(archive.size());
  rows.reserve(archive.rows.size());
  for (const std::size_t slot : archive.slot_of) {
    if (slot == Archive::kNone) continue;
    slots.push_back(slot);
    const double* row = archive.objectives().row(slot);
    rows.insert(rows.end(), row, row + Archive::kCols);
  }
  const auto keep =
      non_dominated_indices(ObjectiveRows{rows.data(), slots.size(),
                                          Archive::kCols});
  std::vector<DesignPoint> front;
  front.reserve(keep.size());
  for (const std::size_t i : keep) front.push_back(archive.points[slots[i]]);
  return front;
}

}  // namespace sega
