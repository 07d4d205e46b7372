#include "baselines/aestar.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "drp/cost_model.hpp"
#include "drp/delta_evaluator.hpp"
#include "drp/lazy_greedy.hpp"
#include "obs/obs.hpp"

namespace agtram::baselines {

namespace {

using Move = drp::GreedyMove;

/// ε-admissibility factor (0 would be pure best-first A*).
constexpr double kEpsilon = 0.15;
/// Children generated per expanded node (top global-benefit moves).
constexpr std::uint32_t kBranching = 3;
/// Open-list size cap (worst nodes evicted).
constexpr std::size_t kMaxOpen = 256;

struct Scored {
  double score;
  drp::ServerId server;
  drp::ObjectIndex object;
};

/// Optimistic remaining saving: every non-local read could, at best, become
/// free without any added broadcast cost.  Admissible by construction.
/// Accumulated as per-object subtotals summed in object order — the same
/// association DeltaEvaluator::optimistic_saving re-sums from its cache, so
/// the two paths see bit-identical f values.
double optimistic_saving(const drp::ReplicaPlacement& placement) {
  const drp::Problem& p = placement.problem();
  double saving = 0.0;
  for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    const double o = static_cast<double>(p.object_units[k]);
    const auto accessors = p.access.accessors(k);
    double s_k = 0.0;
    for (std::size_t slot = 0; slot < accessors.size(); ++slot) {
      const auto& a = accessors[slot];
      if (a.reads == 0 || placement.is_replicator(a.server, k)) continue;
      s_k += static_cast<double>(a.reads) * o *
             static_cast<double>(placement.nn_distance_by_slot(k, slot));
    }
    saving += s_k;
  }
  return saving;
}

/// Hungriest feasible non-replicator reader of object k (r * o * nn), the
/// cheap per-object score behind the candidate shortlist.
Scored shortlist_entry(const drp::ReplicaPlacement& placement,
                       drp::ObjectIndex k) {
  const drp::Problem& p = placement.problem();
  const double o = static_cast<double>(p.object_units[k]);
  const auto accessors = p.access.accessors(k);
  Scored best{0.0, 0, k};
  for (std::size_t slot = 0; slot < accessors.size(); ++slot) {
    const auto& a = accessors[slot];
    if (a.reads == 0 || placement.is_replicator(a.server, k)) continue;
    if (!placement.can_replicate(a.server, k)) continue;
    const double score =
        static_cast<double>(a.reads) * o *
        static_cast<double>(placement.nn_distance_by_slot(k, slot));
    if (score > best.score) {
      best.score = score;
      best.server = a.server;
    }
  }
  return best;
}

/// Cheap candidate generator: for each object, score its hungriest
/// non-replicator reader; evaluate exact global benefit only for the
/// highest-scoring shortlist and return the top kBranching moves.  When
/// `parallel` is set the per-object scoring fans out over the pool; the
/// compaction, sorts and exact walk stay serial in deterministic order, so
/// the returned moves are byte-identical either way.
std::vector<Move> candidate_moves(const drp::ReplicaPlacement& placement,
                                  bool parallel) {
  const drp::Problem& p = placement.problem();
  const std::size_t n = p.object_count();
  std::vector<Scored> scored(n);
  const auto score_chunk = [&](std::size_t first, std::size_t last) {
    for (std::size_t k = first; k < last; ++k) {
      scored[k] = shortlist_entry(placement, static_cast<drp::ObjectIndex>(k));
    }
  };
  if (parallel) {
    common::ThreadPool::shared().parallel_for(0, n, score_chunk,
                                              /*min_grain=*/512);
  } else {
    score_chunk(0, n);
  }

  AGTRAM_OBS_COUNT("aestar.shortlist_scored", n);
  std::vector<Scored> shortlist;
  shortlist.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    if (scored[k].score > 0.0) shortlist.push_back(scored[k]);
  }
  std::sort(shortlist.begin(), shortlist.end(),
            [](const Scored& a, const Scored& b) { return a.score > b.score; });
  // Walk the shortlist in score order, evaluating exact global benefits.
  // The walk goes deeper than 4x kBranching only while it has not yet found
  // kBranching positive moves, so "no moves returned" means exhaustion.
  std::vector<Move> moves;
  for (std::size_t s = 0; s < shortlist.size(); ++s) {
    if (s >= 4 * kBranching && moves.size() >= kBranching) break;
    AGTRAM_OBS_COUNT("aestar.exact_evals", 1);
    const double benefit = drp::CostModel::global_benefit(
        placement, shortlist[s].server, shortlist[s].object);
    if (benefit > 0.0) {
      moves.push_back(Move{benefit, shortlist[s].server, shortlist[s].object});
    }
  }
  std::sort(moves.begin(), moves.end(), [](const Move& a, const Move& b) {
    return a.benefit > b.benefit;
  });
  if (moves.size() > kBranching) moves.resize(kBranching);
  AGTRAM_OBS_COUNT("aestar.moves_returned", moves.size());
  return moves;
}

/// Best reader-site move for one object by exact global benefit.
Move best_reader_move(const drp::ReplicaPlacement& placement,
                      drp::ObjectIndex k) {
  const drp::Problem& p = placement.problem();
  Move best{0.0, 0, k};
  for (const auto& a : p.access.accessors(k)) {
    if (a.reads == 0 || !placement.can_replicate(a.server, k)) continue;
    const double benefit =
        drp::CostModel::global_benefit(placement, a.server, k);
    if (benefit > best.benefit) {
      best.benefit = benefit;
      best.server = a.server;
    }
  }
  return best;
}

/// Exhausts all remaining positive reader-site moves with the lazy greedy.
/// `State` is either a bare ReplicaPlacement (naive) or a DeltaEvaluator
/// (delta); both expose the same benefits bit for bit, so the two paths walk
/// identical move sequences.
template <typename State>
void complete_greedily(State& state) {
  const auto price = [&](drp::ObjectIndex k) {
    if constexpr (std::is_same_v<State, drp::ReplicaPlacement>) {
      return best_reader_move(state, k);
    } else {
      return best_reader_move(state.placement(), k);
    }
  };
  drp::LazyGreedyHeap heap;
  for (drp::ObjectIndex k = 0; k < state.problem().object_count(); ++k) {
    heap.push(price(k));
  }
  drp::run_lazy_greedy(heap, price, [&](const Move& move) {
    state.add_replica(move.server, move.object);
  });
}

struct Node {
  drp::ReplicaPlacement placement;
  double g;  ///< current OTC
  double f;  ///< g - optimistic_saving  (lower bound on reachable OTC)
};

struct DeltaNode {
  drp::DeltaEvaluator eval;
  double g;
  double f;
};

/// Shared Aε-Star search loop.  `NodeT` carries the placement state; the
/// accessor lambdas bridge the naive/delta representations so the FOCAL
/// selection, pruning and eviction logic is written once.
template <typename NodeT, typename MakeRoot, typename Expand, typename Leaf,
          typename MakeChild>
drp::ReplicaPlacement search(const AeStarConfig& config, MakeRoot make_root,
                             Expand expand, Leaf handle_leaf,
                             MakeChild make_child) {
  std::vector<std::unique_ptr<NodeT>> open;
  open.push_back(make_root());
  const double root_cost = open.front()->g;

  // Incumbent: best complete (move-exhausted) solution seen so far.
  std::unique_ptr<drp::ReplicaPlacement> incumbent;
  double incumbent_cost = root_cost;

  std::size_t expansions = 0;
  // Best partial node by g, used for greedy completion at budget exhaustion.
  auto best_partial = std::make_unique<NodeT>(*open.front());
  double best_partial_cost = root_cost;

  while (!open.empty() && expansions < config.max_expansions) {
    // FOCAL rule of Aε-Star: among nodes with f <= (1+eps) * f_min, expand
    // the one with the smallest g (most progress).
    std::size_t min_f = 0;
    for (std::size_t i = 1; i < open.size(); ++i) {
      if (open[i]->f < open[min_f]->f) min_f = i;
    }
    const double focal_bound = open[min_f]->f * (1.0 + kEpsilon) + 1e-9;
    std::size_t pick = min_f;
    for (std::size_t i = 0; i < open.size(); ++i) {
      if (open[i]->f <= focal_bound && open[i]->g < open[pick]->g) pick = i;
    }

    std::unique_ptr<NodeT> node = std::move(open[pick]);
    open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
    ++expansions;

    // Bound: a node that cannot beat the incumbent is pruned.
    if (incumbent && node->f >= incumbent_cost) continue;

    const std::vector<Move> moves = expand(*node);
    if (moves.empty()) {
      // The shortlist dried up: polish with the exhaustive reader-site
      // greedy pass before scoring the leaf as an incumbent.
      auto [leaf, leaf_cost] = handle_leaf(*node);
      if (!incumbent || leaf_cost < incumbent_cost) {
        incumbent_cost = leaf_cost;
        incumbent = std::make_unique<drp::ReplicaPlacement>(std::move(leaf));
      }
      continue;
    }
    for (const Move& move : moves) {
      std::unique_ptr<NodeT> child = make_child(*node, move);
      if (incumbent && child->f >= incumbent_cost) continue;
      if (child->g < best_partial_cost) {
        best_partial_cost = child->g;
        best_partial = std::make_unique<NodeT>(*child);
      }
      open.push_back(std::move(child));
    }
    if (open.size() > kMaxOpen) {
      // Evict the worst-f tail to bound memory.
      std::sort(open.begin(), open.end(),
                [](const auto& a, const auto& b) { return a->f < b->f; });
      open.resize(kMaxOpen);
    }
  }

  if (incumbent && incumbent_cost <= best_partial_cost) {
    return std::move(*incumbent);
  }
  // Budget exhausted on a promising partial: complete it greedily.
  auto [completed, completed_cost] = handle_leaf(*best_partial);
  if (incumbent && incumbent_cost < completed_cost) {
    return std::move(*incumbent);
  }
  return completed;
}

drp::ReplicaPlacement run_aestar_naive(const drp::Problem& problem,
                                       const AeStarConfig& config) {
  return search<Node>(
      config,
      [&] {
        drp::ReplicaPlacement root(problem);
        const double root_cost = drp::CostModel::total_cost(root);
        return std::make_unique<Node>(
            Node{root, root_cost, root_cost - optimistic_saving(root)});
      },
      [&](const Node& node) {
        return candidate_moves(node.placement, /*parallel=*/false);
      },
      [&](const Node& node) {
        drp::ReplicaPlacement leaf = node.placement;
        complete_greedily(leaf);
        const double leaf_cost = drp::CostModel::total_cost(leaf);
        return std::pair(std::move(leaf), leaf_cost);
      },
      [&](const Node& node, const Move& move) {
        auto child = std::make_unique<Node>(node);
        child->placement.add_replica(move.server, move.object);
        child->g = node.g - move.benefit;
        child->f = child->g - optimistic_saving(child->placement);
        return child;
      });
}

drp::ReplicaPlacement run_aestar_delta(const drp::Problem& problem,
                                       const AeStarConfig& config) {
  return search<DeltaNode>(
      config,
      [&] {
        drp::DeltaEvaluator eval{drp::ReplicaPlacement(problem)};
        const double root_cost = eval.total();
        const double f = root_cost - eval.optimistic_saving();
        return std::make_unique<DeltaNode>(
            DeltaNode{std::move(eval), root_cost, f});
      },
      [&](const DeltaNode& node) {
        return candidate_moves(node.eval.placement(), /*parallel=*/true);
      },
      [&](const DeltaNode& node) {
        drp::DeltaEvaluator leaf = node.eval;
        complete_greedily(leaf);
        const double leaf_cost = leaf.total();
        return std::pair(std::move(leaf).take_placement(), leaf_cost);
      },
      [&](const DeltaNode& node, const Move& move) {
        auto child = std::make_unique<DeltaNode>(node);
        child->eval.add_replica(move.server, move.object);
        child->g = node.g - move.benefit;
        child->f = child->g - child->eval.optimistic_saving();
        return child;
      });
}

}  // namespace

drp::ReplicaPlacement run_aestar(const drp::Problem& problem,
                                 const AeStarConfig& config) {
  if (config.eval == EvalPath::Naive) {
    return run_aestar_naive(problem, config);
  }
  return run_aestar_delta(problem, config);
}

}  // namespace agtram::baselines
