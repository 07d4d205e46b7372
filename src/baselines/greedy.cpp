#include "baselines/greedy.hpp"

#include <queue>

#include "common/thread_pool.hpp"
#include "drp/cost_model.hpp"
#include "drp/delta_evaluator.hpp"
#include "obs/obs.hpp"

namespace agtram::baselines {

namespace {

struct Candidate {
  double benefit;
  drp::ObjectIndex object;
  drp::ServerId server;
  bool operator<(const Candidate& other) const noexcept {
    if (benefit != other.benefit) return benefit < other.benefit;
    if (object != other.object) return object > other.object;
    return server > other.server;  // deterministic tie-break
  }
};

/// Best feasible (server, benefit) for object k under the current placement;
/// benefit <= 0 means no useful move remains for k.  This is the naive
/// oracle: per-server global_benefit calls striding down distance-matrix
/// columns.
Candidate best_move_for_object(const drp::Problem& problem,
                               const drp::ReplicaPlacement& placement,
                               drp::ObjectIndex k,
                               const std::vector<bool>* allowed_sites) {
  Candidate best{0.0, k, 0};
  const std::size_t m = problem.server_count();
  std::size_t scanned = 0;
  for (drp::ServerId i = 0; i < m; ++i) {
    if (allowed_sites && !(*allowed_sites)[i]) continue;
    if (!placement.can_replicate(i, k)) continue;
    ++scanned;
    const double benefit = drp::CostModel::global_benefit(placement, i, k);
    if (benefit > best.benefit) {
      best.benefit = benefit;
      best.server = i;
    }
  }
  AGTRAM_OBS_COUNT("greedy.candidates_scanned", scanned);
  AGTRAM_OBS_COUNT("greedy.candidates_pruned", m - scanned);
  return best;
}

/// Shared lazy max-heap loop, parameterised over the candidate-scan
/// implementation so the naive and delta paths run the byte-identical
/// selection logic.  `scan(k)` must replicate best_move_for_object's
/// semantics (feasibility mask, strict >, benefit/server floor {0, 0}).
template <typename ScanFn, typename ApplyFn>
void greedy_loop(std::size_t object_count, const GreedyConfig& config,
                 ScanFn&& scan, ApplyFn&& apply,
                 std::priority_queue<Candidate>& heap) {
  std::size_t placed = 0;
  while (!heap.empty()) {
    if (config.max_replicas != 0 && placed >= config.max_replicas) break;
    const Candidate top = heap.top();
    heap.pop();
    AGTRAM_OBS_COUNT("greedy.heap_pops", 1);
    // Re-validate: capacities and NN tables may have moved underneath this
    // entry.  Benefits only decrease, so if the fresh value still dominates
    // the heap it is the true global max.
    const Candidate fresh = scan(top.object);
    if (fresh.benefit <= 0.0) {
      AGTRAM_OBS_COUNT("greedy.objects_exhausted", 1);
      continue;
    }
    if (!heap.empty() && fresh.benefit < heap.top().benefit) {
      AGTRAM_OBS_COUNT("greedy.repushes", 1);
      heap.push(fresh);
      continue;
    }
    apply(fresh);
    ++placed;
    const Candidate next = scan(fresh.object);
    if (next.benefit > 0.0) heap.push(next);
  }
  (void)object_count;
}

drp::ReplicaPlacement run_greedy_naive(const drp::Problem& problem,
                                       drp::ReplicaPlacement start,
                                       const GreedyConfig& config) {
  drp::ReplicaPlacement placement = std::move(start);
  const std::vector<bool>* sites = config.allowed_sites;

  std::priority_queue<Candidate> heap;
  for (drp::ObjectIndex k = 0; k < problem.object_count(); ++k) {
    const Candidate c = best_move_for_object(problem, placement, k, sites);
    if (c.benefit > 0.0) heap.push(c);
  }

  greedy_loop(
      problem.object_count(), config,
      [&](drp::ObjectIndex k) {
        return best_move_for_object(problem, placement, k, sites);
      },
      [&](const Candidate& c) { placement.add_replica(c.server, c.object); },
      heap);
  return placement;
}

drp::ReplicaPlacement run_greedy_delta(const drp::Problem& problem,
                                       drp::ReplicaPlacement start,
                                       const GreedyConfig& config) {
  drp::DeltaEvaluator eval(std::move(start));
  const std::vector<bool>* sites = config.allowed_sites;
  const std::size_t n = problem.object_count();

  // Seed scan: one loop-swapped best_add per object.  The per-object scans
  // are independent, so the object axis fans out over the pool (each chunk
  // brings its own scratch; the inner server loop stays serial — nested
  // parallel_for would degrade inline anyway).
  std::vector<drp::DeltaEvaluator::BestAdd> seed(n);
  const auto seed_scan = [&](std::size_t first, std::size_t last) {
    drp::DeltaEvaluator::ScanScratch scratch;
    for (std::size_t k = first; k < last; ++k) {
      seed[k] = eval.best_add_for_object(static_cast<drp::ObjectIndex>(k),
                                         sites, scratch, /*parallel=*/false);
    }
  };
  common::ThreadPool::shared().parallel_for(0, n, seed_scan,
                                            /*min_grain=*/16);

  std::priority_queue<Candidate> heap;
  for (drp::ObjectIndex k = 0; k < n; ++k) {
    if (seed[k].benefit > 0.0) {
      heap.push(Candidate{seed[k].benefit, k, seed[k].server});
    }
  }

  // Pop re-validation touches one object at a time, so parallelism moves to
  // the server axis inside best_add_for_object (cutoff-guarded there).
  drp::DeltaEvaluator::ScanScratch scratch;
  greedy_loop(
      n, config,
      [&](drp::ObjectIndex k) {
        const auto best =
            eval.best_add_for_object(k, sites, scratch, /*parallel=*/true);
        return Candidate{best.benefit, k, best.server};
      },
      [&](const Candidate& c) { eval.add_replica(c.server, c.object); },
      heap);
  return std::move(eval).take_placement();
}

}  // namespace

drp::ReplicaPlacement run_greedy(const drp::Problem& problem,
                                 const GreedyConfig& config) {
  return run_greedy_from(problem, drp::ReplicaPlacement(problem), config);
}

drp::ReplicaPlacement run_greedy_from(const drp::Problem& problem,
                                      drp::ReplicaPlacement start,
                                      const GreedyConfig& config) {
  if (config.eval == EvalPath::Naive) {
    return run_greedy_naive(problem, std::move(start), config);
  }
  return run_greedy_delta(problem, std::move(start), config);
}

}  // namespace agtram::baselines
