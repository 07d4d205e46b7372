#include "drp/lazy_greedy.hpp"

#include "common/thread_pool.hpp"

namespace agtram::drp {

GreedyCounts run_greedy_delta(DeltaEvaluator& eval,
                              const std::vector<bool>* allowed_sites,
                              std::size_t max_replicas) {
  const std::size_t n = eval.problem().object_count();

  // Seed scan: the per-object scans are independent, so the object axis
  // fans out over the pool (each chunk brings its own scratch; the inner
  // server loop stays serial — a nested parallel_for would run inline).
  std::vector<DeltaEvaluator::BestAdd> seed(n);
  common::ThreadPool::shared().parallel_for(
      0, n,
      [&](std::size_t first, std::size_t last) {
        DeltaEvaluator::ScanScratch scratch;
        for (std::size_t k = first; k < last; ++k) {
          seed[k] = eval.best_add_for_object(static_cast<ObjectIndex>(k),
                                             allowed_sites, scratch,
                                             /*parallel=*/false);
        }
      },
      /*min_grain=*/16);
  LazyGreedyHeap heap;
  for (ObjectIndex k = 0; k < n; ++k) {
    heap.push(GreedyMove{seed[k].benefit, seed[k].server, k});
  }

  // A re-price touches one object, so parallelism moves to the server axis
  // inside best_add_for_object (cutoff-guarded there).
  DeltaEvaluator::ScanScratch scratch;
  return run_lazy_greedy(
      heap,
      [&](ObjectIndex k) {
        const DeltaEvaluator::BestAdd best = eval.best_add_for_object(
            k, allowed_sites, scratch, /*parallel=*/true);
        return GreedyMove{best.benefit, best.server, k};
      },
      [&](const GreedyMove& move) { eval.add_replica(move.server, move.object); },
      max_replicas);
}

}  // namespace agtram::drp
