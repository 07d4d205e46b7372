#include "baselines/gra.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "drp/cost_model.hpp"
#include "obs/obs.hpp"

namespace agtram::baselines {

using common::Rng;

namespace {

/// Best genomes carried unchanged into the next generation (at most the
/// minimum population of 2).
constexpr std::uint32_t kElites = 2;
/// Tournament size of the parent selection.
constexpr std::uint32_t kTournament = 3;
/// P(a child takes the second parent's rows from a random cut onwards).
constexpr double kCrossoverRate = 0.9;
/// Expected number of add/remove flips applied to each offspring.
constexpr double kMutationsPerChild = 4.0;
/// Fraction of each random initial genome's free capacity to fill.
constexpr double kInitFill = 0.2;

/// A chromosome: for every server, the sorted set of extra replicas it
/// hosts (primaries are implicit and immutable).
struct Genome {
  std::vector<std::vector<drp::ObjectIndex>> rows;
};

bool row_contains(const std::vector<drp::ObjectIndex>& row,
                  drp::ObjectIndex k) {
  return std::binary_search(row.begin(), row.end(), k);
}

void row_insert(std::vector<drp::ObjectIndex>& row, drp::ObjectIndex k) {
  row.insert(std::upper_bound(row.begin(), row.end(), k), k);
}

std::uint64_t row_units(const drp::Problem& p,
                        const std::vector<drp::ObjectIndex>& row) {
  std::uint64_t units = 0;
  for (drp::ObjectIndex k : row) units += p.object_units[k];
  return units;
}

/// Drops random replicas until the row fits the server's replica headroom.
void repair_row(const drp::Problem& p, drp::ServerId i,
                std::vector<drp::ObjectIndex>& row,
                const std::vector<std::uint64_t>& headroom, Rng& rng) {
  std::uint64_t units = row_units(p, row);
  while (units > headroom[i] && !row.empty()) {
    const std::size_t victim = rng.below(row.size());
    units -= p.object_units[row[victim]];
    row.erase(row.begin() + static_cast<std::ptrdiff_t>(victim));
  }
}

drp::ReplicaPlacement materialise(const drp::Problem& p, const Genome& g) {
  drp::ReplicaPlacement placement(p);
  for (drp::ServerId i = 0; i < p.server_count(); ++i) {
    for (drp::ObjectIndex k : g.rows[i]) {
      if (placement.can_replicate(i, k)) placement.add_replica(i, k);
    }
  }
  return placement;
}

double fitness(const drp::Problem& p, const Genome& g) {
  AGTRAM_OBS_COUNT("gra.fitness_evals", 1);
  return drp::CostModel::total_cost(materialise(p, g));
}

/// Reusable buffers for delta_fitness (caller-owned so concurrent scoring
/// chunks each bring their own).  The per-object replicator sets live in a
/// flat CSR-style pool (`rset_data` sliced by `offset`) rather than one
/// vector per object: a paper-scale genome touches tens of thousands of
/// objects, and per-object vectors meant that many mallocs per fitness
/// call — enough allocator traffic to serialise the parallel scoring pass.
struct GraScratch {
  std::vector<std::uint32_t> count;     ///< replicas per object (pass 1)
  std::vector<std::uint32_t> offset;    ///< CSR offsets, size n+1
  std::vector<drp::ServerId> rset_data; ///< server ids, object-major
  std::vector<drp::ServerId> merged;    ///< one rset + primary, reused
  std::vector<double> partial;

  /// Per-object memo of replicator sets priced so far.
  /// object_cost_with_replicators is a pure function of (object, rset), so
  /// a remembered cost is the identical double bit for bit — and the GA
  /// re-prices the same sets constantly (elites survive verbatim, children
  /// inherit most parent rows), so by the later generations most touched
  /// objects hit the memo instead of walking their accessors again.
  /// Capped per object: the sets priced first come from the seed genomes
  /// and early elite lineages, exactly the ones that keep recurring.
  struct MemoEntry {
    std::uint32_t off;
    std::uint32_t len;
    double cost;
  };
  static constexpr std::size_t kMemoCap = 16;
  std::vector<std::vector<MemoEntry>> memo;            ///< per object
  std::vector<std::vector<drp::ServerId>> memo_keys;   ///< per-object pool
};

/// Chromosome fitness without materialising a placement: gathers each
/// object's replicator set straight from the (server-major, hence
/// server-sorted) genome rows, prices touched objects through
/// object_cost_with_replicators and untouched ones from the precomputed
/// primaries-only `base`, then re-sums in object order — the association
/// total_cost uses, so the result is bit-identical to the naive path.
/// Rows that violate the genome invariants (sorted, duplicate-free, no
/// primaries, within headroom — guaranteed post-repair) fall back to the
/// naive materialise, whose can_replicate guard defines the semantics.
double delta_fitness(const drp::Problem& p, const Genome& g,
                     const std::vector<double>& base,
                     const std::vector<std::uint64_t>& headroom,
                     GraScratch& s) {
  AGTRAM_OBS_COUNT("gra.delta_fitness_evals", 1);
  const std::size_t n = p.object_count();
  s.count.assign(n, 0);
  std::size_t replicas = 0;

  for (drp::ServerId i = 0; i < p.server_count(); ++i) {
    std::uint64_t units = 0;
    drp::ObjectIndex prev = 0;
    bool first = true;
    for (drp::ObjectIndex k : g.rows[i]) {
      if ((!first && k <= prev) || p.primary[k] == i) {
        AGTRAM_OBS_COUNT("gra.naive_fallbacks", 1);
        return fitness(p, g);
      }
      units += p.object_units[k];
      ++s.count[k];
      ++replicas;
      prev = k;
      first = false;
    }
    if (units > headroom[i]) {
      AGTRAM_OBS_COUNT("gra.naive_fallbacks", 1);
      return fitness(p, g);
    }
  }

  s.offset.resize(n + 1);
  s.offset[0] = 0;
  for (std::size_t k = 0; k < n; ++k) s.offset[k + 1] = s.offset[k] + s.count[k];
  s.rset_data.resize(replicas);
  s.count.assign(n, 0);  // reuse as per-object fill cursor
  for (drp::ServerId i = 0; i < p.server_count(); ++i) {
    // Server-major fill keeps each object's slice in ascending server order.
    for (drp::ObjectIndex k : g.rows[i]) {
      s.rset_data[s.offset[k] + s.count[k]++] = i;
    }
  }

  if (s.memo.size() != n) {
    s.memo.resize(n);
    s.memo_keys.resize(n);
  }
  s.partial.assign(base.begin(), base.end());
  for (std::size_t k = 0; k < n; ++k) {
    if (s.count[k] == 0) continue;
    // Merge the primary into the (ascending-server) slice; a real
    // materialise leaves replicators(k) in exactly this sorted order.
    const drp::ServerId primary = p.primary[k];
    const auto* first_rep = s.rset_data.data() + s.offset[k];
    const auto* last_rep = s.rset_data.data() + s.offset[k + 1];
    s.merged.assign(first_rep, last_rep);
    s.merged.insert(
        std::upper_bound(s.merged.begin(), s.merged.end(), primary), primary);

    auto& entries = s.memo[k];
    auto& keys = s.memo_keys[k];
    double cost = 0.0;
    bool found = false;
    for (const auto& e : entries) {
      if (e.len == s.merged.size() &&
          std::equal(s.merged.begin(), s.merged.end(),
                     keys.begin() + e.off)) {
        cost = e.cost;
        found = true;
        break;
      }
    }
    if (found) {
      AGTRAM_OBS_COUNT("gra.memo_hits", 1);
    } else {
      AGTRAM_OBS_COUNT("gra.memo_misses", 1);
    }
    if (!found) {
      cost = drp::CostModel::object_cost_with_replicators(
          p, static_cast<drp::ObjectIndex>(k), s.merged);
      if (entries.size() < GraScratch::kMemoCap) {
        const auto off = static_cast<std::uint32_t>(keys.size());
        keys.insert(keys.end(), s.merged.begin(), s.merged.end());
        entries.push_back(
            {off, static_cast<std::uint32_t>(s.merged.size()), cost});
      }
    }
    s.partial[k] = cost;
  }
  double total = 0.0;
  for (const double v : s.partial) total += v;
  return total;
}

/// Demand-seeded genome: each server greedily packs its own most-read
/// objects.  The GRA literature seeds part of the population with such
/// heuristic solutions; pure random initialisation is what the paper blames
/// for GRA's weak showing, so we keep both kinds.
Genome demand_seeded_genome(const drp::Problem& p,
                            const std::vector<std::uint64_t>& headroom,
                            double fill, Rng& rng) {
  Genome g;
  g.rows.resize(p.server_count());
  for (drp::ServerId i = 0; i < p.server_count(); ++i) {
    auto objects = std::vector<drp::ServerSideAccess>(
        p.access.server_objects(i).begin(), p.access.server_objects(i).end());
    std::sort(objects.begin(), objects.end(),
              [](const drp::ServerSideAccess& a,
                 const drp::ServerSideAccess& b) { return a.reads > b.reads; });
    const auto budget = static_cast<std::uint64_t>(
        static_cast<double>(headroom[i]) * fill * rng.uniform(0.6, 1.0));
    std::uint64_t units = 0;
    for (const auto& access : objects) {
      if (access.reads == 0 || p.primary[access.object] == i) continue;
      // Only pack objects whose local read demand beats the system-wide
      // update volume — a public-knowledge proxy for a profitable replica.
      if (access.reads <= p.access.total_writes(access.object)) continue;
      if (units + p.object_units[access.object] > budget) continue;
      row_insert(g.rows[i], access.object);
      units += p.object_units[access.object];
    }
  }
  return g;
}

Genome random_genome(const drp::Problem& p,
                     const std::vector<std::uint64_t>& headroom,
                     double fill, Rng& rng) {
  Genome g;
  g.rows.resize(p.server_count());
  for (drp::ServerId i = 0; i < p.server_count(); ++i) {
    const auto budget =
        static_cast<std::uint64_t>(static_cast<double>(headroom[i]) * fill);
    std::uint64_t units = 0;
    std::uint32_t stall = 0;
    while (units < budget && stall < 32) {
      const auto k =
          static_cast<drp::ObjectIndex>(rng.below(p.object_count()));
      if (p.primary[k] == i || row_contains(g.rows[i], k) ||
          units + p.object_units[k] > headroom[i]) {
        ++stall;
        continue;
      }
      row_insert(g.rows[i], k);
      units += p.object_units[k];
      stall = 0;
    }
  }
  return g;
}

void mutate(const drp::Problem& p, Genome& g,
            const std::vector<std::uint64_t>& headroom, double flips,
            Rng& rng) {
  const auto count = static_cast<std::uint32_t>(
      std::max(0.0, std::round(flips * (0.5 + rng.uniform()))));
  for (std::uint32_t f = 0; f < count; ++f) {
    const auto i = static_cast<drp::ServerId>(rng.below(p.server_count()));
    auto& row = g.rows[i];
    if (!row.empty() && rng.chance(0.5)) {
      row.erase(row.begin() + static_cast<std::ptrdiff_t>(rng.below(row.size())));
    } else {
      const auto k =
          static_cast<drp::ObjectIndex>(rng.below(p.object_count()));
      if (p.primary[k] == i || row_contains(row, k)) continue;
      if (row_units(p, row) + p.object_units[k] > headroom[i]) continue;
      row_insert(row, k);
    }
  }
}

}  // namespace

drp::ReplicaPlacement run_gra(const drp::Problem& problem,
                              const GraConfig& config) {
  assert(config.population >= 2);
  Rng rng(config.seed);

  // Replica headroom per server (capacity minus immutable primary load).
  const auto primary_load = problem.primary_load();
  std::vector<std::uint64_t> headroom(problem.server_count());
  for (std::size_t i = 0; i < headroom.size(); ++i) {
    headroom[i] = problem.capacity[i] - primary_load[i];
  }

  std::vector<Genome> population;
  std::vector<double> scores;
  population.reserve(config.population);
  // Seed one primaries-only genome (so the search never regresses below the
  // initial network), a handful of demand-seeded heuristic genomes, and
  // random genomes for diversity.
  population.push_back(Genome{std::vector<std::vector<drp::ObjectIndex>>(
      problem.server_count())});
  const std::uint32_t seeded = std::min<std::uint32_t>(
      config.population / 4, config.population - 1);
  for (std::uint32_t g = 0; g < seeded; ++g) {
    population.push_back(
        demand_seeded_genome(problem, headroom, kInitFill, rng));
  }
  while (population.size() < config.population) {
    population.push_back(
        random_genome(problem, headroom, kInitFill, rng));
  }
  // Primaries-only per-object costs: the delta fitness prices every object a
  // genome does not touch straight from this table.
  std::vector<double> base;
  if (config.eval == EvalPath::Delta) {
    base.resize(problem.object_count());
    drp::CostModel::object_costs(drp::ReplicaPlacement(problem), base);
  }

  // Scratches persist across generations (checked out per scoring chunk, so
  // concurrent chunks never share one): the per-object memo they carry is
  // what turns repeat rset pricing into a lookup, and the big flat buffers
  // stop being reallocated every generation.
  std::vector<std::unique_ptr<GraScratch>> scratch_pool;
  std::mutex scratch_mutex;

  /// Scores population[from..) into scores[from..); entries below `from`
  /// (elites) keep their carried-over values.
  const auto score_range = [&](std::size_t from) {
    if (config.eval == EvalPath::Naive) {
      for (std::size_t i = from; i < population.size(); ++i) {
        scores[i] = fitness(problem, population[i]);
      }
      return;
    }
    const auto body = [&](std::size_t first, std::size_t last) {
      std::unique_ptr<GraScratch> scratch;
      {
        const std::lock_guard<std::mutex> lock(scratch_mutex);
        if (!scratch_pool.empty()) {
          scratch = std::move(scratch_pool.back());
          scratch_pool.pop_back();
        }
      }
      if (!scratch) scratch = std::make_unique<GraScratch>();
      for (std::size_t i = first; i < last; ++i) {
        scores[i] = delta_fitness(problem, population[i], base, headroom,
                                  *scratch);
      }
      const std::lock_guard<std::mutex> lock(scratch_mutex);
      scratch_pool.push_back(std::move(scratch));
    };
    common::ThreadPool::shared().parallel_for(from, population.size(), body,
                                              /*min_grain=*/1);
  };

  scores.resize(config.population);
  score_range(0);

  const auto best_index = [&scores] {
    std::size_t best = 0;
    for (std::size_t i = 1; i < scores.size(); ++i) {
      if (scores[i] < scores[best]) best = i;
    }
    return best;
  };

  Genome best_ever = population[best_index()];
  double best_score = scores[best_index()];

  const auto tournament_pick = [&]() -> const Genome& {
    std::size_t winner = rng.below(population.size());
    for (std::uint32_t t = 1; t < kTournament; ++t) {
      const std::size_t challenger = rng.below(population.size());
      if (scores[challenger] < scores[winner]) winner = challenger;
    }
    return population[winner];
  };

  for (std::uint32_t gen = 0; gen < config.generations; ++gen) {
    std::vector<Genome> next;
    next.reserve(config.population);

    // Elitism: carry over the best genomes unchanged.
    std::vector<std::size_t> order(population.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&scores](std::size_t a, std::size_t b) {
      return scores[a] < scores[b];
    });
    std::vector<double> elite_scores;
    elite_scores.reserve(kElites);
    for (std::uint32_t e = 0; e < kElites; ++e) {
      next.push_back(population[order[e]]);
      elite_scores.push_back(scores[order[e]]);
    }

    while (next.size() < config.population) {
      Genome child = tournament_pick();
      if (rng.chance(kCrossoverRate)) {
        const Genome& other = tournament_pick();
        const std::size_t cut = rng.below(problem.server_count());
        for (std::size_t i = cut; i < problem.server_count(); ++i) {
          child.rows[i] = other.rows[i];
        }
      }
      mutate(problem, child, headroom, kMutationsPerChild, rng);
      for (drp::ServerId i = 0; i < problem.server_count(); ++i) {
        repair_row(problem, i, child.rows[i], headroom, rng);
      }
      next.push_back(std::move(child));
    }

    population = std::move(next);
    // Elites carry their scores (fitness is pure, so the cached value is
    // bitwise the recomputation); the naive oracle rescoring everything from
    // 0 would produce the same doubles.
    std::size_t rescore_from = 0;
    if (config.eval == EvalPath::Delta) {
      for (std::size_t e = 0; e < elite_scores.size(); ++e) {
        scores[e] = elite_scores[e];
      }
      rescore_from = elite_scores.size();
    }
    score_range(rescore_from);
    for (std::size_t i = 0; i < population.size(); ++i) {
      if (scores[i] < best_score) {
        best_score = scores[i];
        best_ever = population[i];
      }
    }
  }
  return materialise(problem, best_ever);
}

}  // namespace agtram::baselines
