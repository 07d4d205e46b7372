#include "baselines/greedy.hpp"

#include <stdexcept>
#include <string>

#include "drp/cost_model.hpp"
#include "drp/delta_evaluator.hpp"
#include "drp/lazy_greedy.hpp"
#include "obs/obs.hpp"

namespace agtram::baselines {

namespace {

/// Best feasible (server, benefit) for object k under the current placement;
/// benefit <= 0 means no useful move remains for k.  This is the naive
/// oracle: per-server global_benefit calls striding down distance-matrix
/// columns.
drp::GreedyMove best_move_for_object(const drp::Problem& problem,
                                     const drp::ReplicaPlacement& placement,
                                     drp::ObjectIndex k,
                                     const std::vector<bool>* allowed_sites) {
  drp::GreedyMove best{0.0, 0, k};
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

drp::GreedyCounts run_greedy_naive(const drp::Problem& problem,
                                   drp::ReplicaPlacement& placement,
                                   const GreedyConfig& config) {
  const auto price = [&](drp::ObjectIndex k) {
    return best_move_for_object(problem, placement, k, config.allowed_sites);
  };
  drp::LazyGreedyHeap heap;
  for (drp::ObjectIndex k = 0; k < problem.object_count(); ++k) {
    heap.push(price(k));
  }
  return drp::run_lazy_greedy(
      heap, price,
      [&](const drp::GreedyMove& move) {
        placement.add_replica(move.server, move.object);
      },
      config.max_replicas);
}

}  // namespace

drp::ReplicaPlacement run_greedy(const drp::Problem& problem,
                                 const GreedyConfig& config) {
  return run_greedy_from(problem, drp::ReplicaPlacement(problem), config);
}

drp::ReplicaPlacement run_greedy_from(const drp::Problem& problem,
                                      drp::ReplicaPlacement start,
                                      const GreedyConfig& config) {
  if (config.allowed_sites != nullptr &&
      config.allowed_sites->size() != problem.server_count()) {
    throw std::invalid_argument(
        "run_greedy: the site mask has " +
        std::to_string(config.allowed_sites->size()) + " entries for " +
        std::to_string(problem.server_count()) + " servers");
  }
  drp::GreedyCounts counts;
  if (config.eval == EvalPath::Naive) {
    counts = run_greedy_naive(problem, start, config);
  } else {
    drp::DeltaEvaluator eval(std::move(start));
    counts = drp::run_greedy_delta(eval, config.allowed_sites,
                                   config.max_replicas);
    start = std::move(eval).take_placement();
  }
  AGTRAM_OBS_COUNT("greedy.heap_pops", counts.pops);
  AGTRAM_OBS_COUNT("greedy.repushes", counts.repushes);
  AGTRAM_OBS_COUNT("greedy.objects_exhausted", counts.exhausted);
  return start;
}

}  // namespace agtram::baselines
