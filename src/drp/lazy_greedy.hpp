// The lazy greedy behind every greedy placement loop (DESIGN.md §8):
// Greedy's naive and delta paths, Aε-Star's greedy completion, the
// cooperative regional game's per-region heaps and the tiled engine's
// cooperative shards.
//
// Placing a replica can only lower the benefit of any further move (NN
// distances and free capacities only shrink), so one heap entry per object,
// keyed by that object's best move, is enough.  When the top comes off it is
// re-priced against the current placement; a re-priced benefit that still
// dominates the heap is the true best move.  Ties go to the lowest object id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "drp/delta_evaluator.hpp"
#include "drp/problem.hpp"

namespace agtram::drp {

/// Replicate `object` at `server`, lowering the cost by `benefit`.
struct GreedyMove {
  double benefit = 0.0;
  ServerId server = 0;
  ObjectIndex object = 0;
};

/// What a greedy did; each caller publishes these under its own obs names.
struct GreedyCounts {
  std::uint64_t pops = 0;       ///< heap tops re-priced
  std::uint64_t repushes = 0;   ///< re-priced tops that fell below the next
  std::uint64_t exhausted = 0;  ///< objects dropped with no positive move
  std::uint64_t placed = 0;     ///< moves applied
};

class LazyGreedyHeap {
 public:
  /// Queues `move` if it lowers the cost.  At most one entry per object may
  /// be queued at a time.
  void push(const GreedyMove& move) {
    if (move.benefit > 0.0) heap_.push(Entry{move.benefit, move.object});
  }

  /// Pops tops until one re-validates: `price(k)` re-prices object k's best
  /// move against the current placement.  Returns the best move, or nothing
  /// once no object has a positive one.
  template <typename Price>
  std::optional<GreedyMove> pop_best(Price&& price, GreedyCounts& counts) {
    while (!heap_.empty()) {
      const ObjectIndex k = heap_.top().object;
      heap_.pop();
      ++counts.pops;
      const GreedyMove fresh = price(k);
      if (fresh.benefit <= 0.0) {
        ++counts.exhausted;
        continue;
      }
      if (!heap_.empty() && fresh.benefit < heap_.top().benefit) {
        ++counts.repushes;
        heap_.push(Entry{fresh.benefit, k});
        continue;
      }
      return fresh;
    }
    return std::nullopt;
  }

 private:
  struct Entry {
    double benefit;
    ObjectIndex object;
    bool operator<(const Entry& other) const noexcept {
      if (benefit != other.benefit) return benefit < other.benefit;
      return object > other.object;
    }
  };
  std::priority_queue<Entry> heap_;
};

/// The greedy loop: apply the best move and re-queue its object's next one,
/// until no move lowers the cost or `max_moves` moves (0 = no cap) landed.
template <typename Price, typename Apply>
GreedyCounts run_lazy_greedy(LazyGreedyHeap& heap, Price&& price,
                             Apply&& apply, std::size_t max_moves = 0) {
  GreedyCounts counts;
  while (max_moves == 0 || counts.placed < max_moves) {
    const std::optional<GreedyMove> best = heap.pop_best(price, counts);
    if (!best) break;
    apply(*best);
    ++counts.placed;
    heap.push(price(best->object));
  }
  return counts;
}

/// Greedy's delta loop on `eval`: each object's best add
/// (DeltaEvaluator::best_add_for_object) seeds the heap, with the object
/// axis on the shared pool, and each re-price forks its server axis.
/// `allowed_sites` (size M, or null for every server) masks the hosts;
/// `max_replicas` caps the placements (0 = until no add lowers the cost).
GreedyCounts run_greedy_delta(DeltaEvaluator& eval,
                              const std::vector<bool>* allowed_sites,
                              std::size_t max_replicas);

}  // namespace agtram::drp
