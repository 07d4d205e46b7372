#include "baselines/selfish_caching.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/prng.hpp"
#include "drp/cost_model.hpp"
#include "obs/obs.hpp"

namespace agtram::baselines {

namespace {

/// One best-response turn, naive oracle: rescan every candidate after each
/// placement, first strict maximum in ascending-object order.
bool naive_turn(const drp::Problem& problem, drp::ReplicaPlacement& placement,
                drp::ServerId i, std::size_t& moves) {
  bool moved = false;
  for (;;) {
    double best = 0.0;
    drp::ObjectIndex best_k = 0;
    std::size_t scanned = 0;
    std::size_t pruned = 0;
    for (const auto& access : problem.access.server_objects(i)) {
      if (access.reads == 0 || !placement.can_replicate(i, access.object)) {
        ++pruned;
        continue;
      }
      ++scanned;
      const double benefit =
          drp::CostModel::agent_benefit(placement, i, access.object);
      if (benefit > best) {
        best = benefit;
        best_k = access.object;
      }
    }
    AGTRAM_OBS_COUNT("selfish.candidates_scanned", scanned);
    AGTRAM_OBS_COUNT("selfish.candidates_pruned", pruned);
    if (best <= 0.0) break;
    placement.add_replica(i, best_k);
    ++moves;
    moved = true;
  }
  return moved;
}

/// Delta turn: server i's benefit for object k only depends on k's own NN
/// structure and i's free capacity, and i's adds never touch another
/// object's NN row — so all benefits are computed once, sorted descending
/// (ties to the lowest object, matching the naive first-strict-max over
/// ascending objects), and walked with a feasibility re-check.  Capacity
/// only shrinks within a turn, so the walk replays the naive pick sequence
/// exactly.  Each benefit reads the cell's accessor slot off the by-server
/// view, as core::Agent does, instead of agent_benefit's binary search.
bool delta_turn(const drp::Problem& problem, drp::ReplicaPlacement& placement,
                drp::ServerId i,
                std::vector<std::pair<double, drp::ObjectIndex>>& candidates,
                std::size_t& moves) {
  candidates.clear();
  const auto objects = problem.access.server_objects(i);
  std::size_t scanned = 0;
  for (const auto& access : objects) {
    if (access.reads == 0) continue;
    if (!placement.can_replicate(i, access.object)) continue;
    ++scanned;
    const double benefit = drp::CostModel::agent_benefit_at(
        placement, i, access.object, access.slot);
    if (benefit > 0.0) candidates.emplace_back(benefit, access.object);
  }
  AGTRAM_OBS_COUNT("selfish.candidates_scanned", scanned);
  AGTRAM_OBS_COUNT("selfish.candidates_pruned", objects.size() - scanned);
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  bool moved = false;
  for (const auto& [benefit, k] : candidates) {
    if (!placement.can_replicate(i, k)) continue;
    placement.add_replica(i, k);
    ++moves;
    moved = true;
  }
  return moved;
}

}  // namespace

SelfishCachingResult run_selfish_caching(const drp::Problem& problem,
                                         const SelfishCachingConfig& config) {
  common::Rng rng(config.seed);
  SelfishCachingResult result{drp::ReplicaPlacement(problem)};

  std::vector<drp::ServerId> order(problem.server_count());
  std::iota(order.begin(), order.end(), 0);

  std::vector<std::pair<double, drp::ObjectIndex>> candidates;

  bool anyone_moved = true;
  while (anyone_moved) {
    anyone_moved = false;
    // Fisher-Yates reshuffle: asynchronous, unordered best responses.
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (const drp::ServerId i : order) {
      const bool moved =
          config.eval == EvalPath::Delta
              ? delta_turn(problem, result.placement, i, candidates,
                           result.moves)
              : naive_turn(problem, result.placement, i, result.moves);
      anyone_moved = anyone_moved || moved;
      if (moved) AGTRAM_OBS_COUNT("selfish.moves", 1);
    }
    ++result.sweeps;
    AGTRAM_OBS_COUNT("selfish.sweeps", 1);
  }
  return result;
}

}  // namespace agtram::baselines
