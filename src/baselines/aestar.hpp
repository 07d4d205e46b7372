// Aε-Star — ε-admissible best-first branch-and-bound (comparison baseline;
// Khan & Ahmad, "Heuristic-based Replication Schemas for Fast Information
// Retrieval over the Internet", PDCS 2004).
//
// Search space: sequences of replica additions starting from the
// primaries-only scheme.  Each node carries its placement, the current cost
// g, and an admissible optimistic bound h on the further achievable saving
// (every remaining read served at distance zero, for free).  Nodes are
// expanded best-first by f = g - h; a node's children are its top-B
// global-benefit moves.  The ε-relaxation (the "Aε" of the name) prunes any
// node whose f exceeds (1+ε) times the best f seen, trading optimality for
// tractability exactly as the original technique does; a hard expansion
// budget bounds the worst case.
//
// With the defaults this lands where the paper puts it: solution quality in
// the Greedy neighbourhood, execution time well above Greedy/AGT-RAM.
#pragma once

#include <cstdint>

#include "baselines/eval_path.hpp"
#include "drp/placement.hpp"
#include "drp/problem.hpp"

namespace agtram::baselines {

struct AeStarConfig {
  /// Hard cap on node expansions; the best partial solution found within
  /// the budget is completed greedily (reader sites only).
  std::size_t max_expansions = 150;
  /// Delta: nodes carry a drp::DeltaEvaluator, so each child's h bound is an
  /// O(N) re-sum of cached per-object savings instead of a full accessor
  /// sweep, and leaf costs come from the cache; the per-object candidate
  /// shortlist is scored on the shared pool.  Naive: full recomputation.
  EvalPath eval = EvalPath::Delta;
};

drp::ReplicaPlacement run_aestar(const drp::Problem& problem,
                                 const AeStarConfig& config = {});
/// The placement keeps a pointer to the Problem: a temporary one is refused.
drp::ReplicaPlacement run_aestar(drp::Problem&&,
                                 const AeStarConfig& = {}) = delete;

}  // namespace agtram::baselines
