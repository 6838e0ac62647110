#include "dse/nsga2.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "util/assert.h"
#include "util/threadpool.h"

namespace sega {

namespace {

struct Genome {
  int n_exp = 0;
  int h_exp = 0;
  std::int64_t k = 1;

  auto key() const { return std::tie(n_exp, h_exp, k); }
  bool operator<(const Genome& other) const { return key() < other.key(); }
  bool operator==(const Genome& other) const { return key() == other.key(); }
};

struct Individual {
  Genome genome;
  DesignPoint point;
  Objectives objectives;
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
using Archive = std::map<Genome, std::pair<DesignPoint, Objectives>>;

/// One batch of feasible (genome, decoded point) candidates.  Batches are
/// produced serially — decode_with_repair consumes no randomness, so the RNG
/// stream is identical to the historical generate-and-evaluate-inline path —
/// and evaluated afterwards, possibly concurrently.
struct CandidateBatch {
  std::vector<Genome> genomes;
  std::vector<DesignPoint> points;

  std::size_t size() const { return genomes.size(); }
  void add(const Genome& g, const DesignPoint& dp) {
    genomes.push_back(g);
    points.push_back(dp);
  }
};

/// Fold a batch into the archive.  Genomes not yet archived are deduplicated
/// in first-occurrence order, gathered contiguously, evaluated in pool-
/// chunked batches, and inserted in that same fixed order — so archive
/// contents and stats->evaluations are bit-identical for every thread count
/// and chunking.
void fold_batch(const BatchObjectiveFn& objective, const CandidateBatch& batch,
                Archive* archive, Nsga2Stats* stats, ThreadPool& pool) {
  std::vector<std::size_t> miss;
  std::set<Genome> pending;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (archive->count(batch.genomes[i]) != 0) continue;
    if (!pending.insert(batch.genomes[i]).second) continue;
    miss.push_back(i);
  }
  std::vector<DesignPoint> cold;
  cold.reserve(miss.size());
  for (const std::size_t i : miss) cold.push_back(batch.points[i]);
  std::vector<Objectives> results(miss.size());
  pool.parallel_for_chunks(
      miss.size(), kDseEvalChunk, [&](std::size_t begin, std::size_t end) {
        objective(Span<const DesignPoint>(cold.data() + begin, end - begin),
                  Span<Objectives>(results.data() + begin, end - begin));
      });
  for (std::size_t j = 0; j < miss.size(); ++j) {
    archive->emplace(batch.genomes[miss[j]],
                     std::make_pair(batch.points[miss[j]], results[j]));
    if (stats) ++stats->evaluations;
  }
}

/// Materialize the batch as individuals from the (fully populated) archive.
std::vector<Individual> individuals_from(const CandidateBatch& batch,
                                         const Archive& archive) {
  std::vector<Individual> out;
  out.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Individual ind;
    ind.genome = batch.genomes[i];
    ind.point = batch.points[i];
    ind.objectives = archive.at(batch.genomes[i]).second;
    out.push_back(std::move(ind));
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

/// Assign ranks and crowding to @p pop in place.
void rank_population(std::vector<Individual>* pop) {
  std::vector<Objectives> objs;
  objs.reserve(pop->size());
  for (const auto& ind : *pop) objs.push_back(ind.objectives);
  const auto fronts = fast_non_dominated_sort(objs);
  for (std::size_t f = 0; f < fronts.size(); ++f) {
    std::vector<Objectives> front_objs;
    front_objs.reserve(fronts[f].size());
    for (const std::size_t i : fronts[f]) front_objs.push_back(objs[i]);
    const auto crowd = crowding_distances(front_objs);
    for (std::size_t j = 0; j < fronts[f].size(); ++j) {
      (*pop)[fronts[f][j]].rank = static_cast<int>(f);
      (*pop)[fronts[f][j]].crowding = crowd[j];
    }
  }
}

}  // namespace

std::vector<DesignPoint> nsga2_optimize(const DesignSpace& space,
                                        const ObjectiveFn& objective,
                                        const Nsga2Options& options,
                                        Nsga2Stats* stats) {
  SEGA_EXPECTS(objective != nullptr);
  const BatchObjectiveFn batched = [&objective](Span<const DesignPoint> points,
                                                Span<Objectives> out) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      out[i] = objective(points[i]);
    }
  };
  return nsga2_optimize(space, batched, options, stats);
}

std::vector<DesignPoint> nsga2_optimize(const DesignSpace& space,
                                        const BatchObjectiveFn& objective,
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

  // --- initial population ---
  Archive archive;
  CandidateBatch init;
  for (int attempts = 0;
       static_cast<int>(init.size()) < options.population &&
       attempts < options.population * 64;
       ++attempts) {
    Genome g = random_genome(space, rng);
    if (auto dp = decode_with_repair(space, &g)) init.add(g, *dp);
  }
  if (init.size() == 0) return {};
  fold_batch(objective, init, &archive, stats, pool);
  std::vector<Individual> pop = individuals_from(init, archive);
  rank_population(&pop);

  // --- generational loop ---
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
        batch.add(child, *dp);
      } else {
        // Infeasible even after repair: inject a random immigrant to keep
        // population pressure up.
        Genome imm = random_genome(space, rng);
        if (auto dpi = decode_with_repair(space, &imm)) batch.add(imm, *dpi);
      }
    }
    fold_batch(objective, batch, &archive, stats, pool);
    std::vector<Individual> offspring = individuals_from(batch, archive);

    // Environmental selection over parents + offspring.
    std::vector<Individual> merged = std::move(pop);
    merged.insert(merged.end(), std::make_move_iterator(offspring.begin()),
                  std::make_move_iterator(offspring.end()));
    rank_population(&merged);
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Individual& a, const Individual& b) {
                       if (a.rank != b.rank) return a.rank < b.rank;
                       return a.crowding > b.crowding;
                     });
    merged.resize(static_cast<std::size_t>(options.population));
    pop = std::move(merged);
    rank_population(&pop);
    ++stats->generations_run;
  }

  // --- extract the non-dominated subset of everything evaluated ---
  std::vector<DesignPoint> points;
  std::vector<Objectives> objs;
  points.reserve(archive.size());
  objs.reserve(archive.size());
  for (const auto& [g, entry] : archive) {
    points.push_back(entry.first);
    objs.push_back(entry.second);
  }
  const auto keep = non_dominated_indices(objs);
  std::vector<DesignPoint> front;
  front.reserve(keep.size());
  for (const std::size_t i : keep) front.push_back(points[i]);
  return front;
}

}  // namespace sega
