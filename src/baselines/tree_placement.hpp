// Replica placement on tree networks — the exact and greedy single-server-
// per-client strategies of Benoit, Rehn & Robert ("Strategies for Replica
// Placement in Tree Networks", cs/0611034), as an optimality reference for
// the TopologyKind::Tree instance family.
//
// Policy ("Closest"): the tree is rooted at the object's primary, and every
// client is served by the nearest *open* server on its path to the root —
// not the globally nearest replica.  Under that restriction the per-object
// optimum is computable exactly by a dynamic program over (node, nearest
// open ancestor) states in O(n * depth); the greedy variant opens servers
// one best-marginal-gain at a time under the same policy.  Both are
// uncapacitated references; the replay onto a ReplicaPlacement skips adds
// the capacity model forbids (counted in skipped_infeasible).
//
// Policy cost is the OTC of drp::CostModel with NN_ik replaced by the
// closest-open-ancestor distance, so policy_cost >= OTC of the same replica
// set, and the exact DP's per-object cost lower-bounds every placement that
// obeys the ancestor policy (tests brute-force this on tiny trees).
#pragma once

#include <cstdint>
#include <vector>

#include "drp/placement.hpp"
#include "drp/problem.hpp"
#include "net/graph.hpp"

namespace agtram::baselines {

struct TreePlacementConfig {
  /// true: the exact (node, ancestor) DP; false: greedy best-marginal-gain
  /// openings under the same closest-ancestor policy.
  bool exact = true;
};

/// Chosen servers for one object (always contains the primary) plus the
/// policy cost of serving that object through them.
struct TreeObjectChoice {
  std::vector<drp::ServerId> open;
  double policy_cost = 0.0;
};

struct TreePlacementResult {
  drp::ReplicaPlacement placement;  ///< replayed with the capacity guard
  std::vector<TreeObjectChoice> per_object;
  double policy_cost = 0.0;  ///< sum of per-object policy costs
  std::size_t skipped_infeasible = 0;
};

/// Runs the strategy over every object of `problem`.  `tree` must be the
/// topology make_instance built the metric closure from (drp::make_topology
/// regenerates it): exactly n-1 edges and connected, so closure distances
/// equal tree-path distances.  Throws std::invalid_argument otherwise.
TreePlacementResult run_tree_placement(const drp::Problem& problem,
                                       const net::Graph& tree,
                                       const TreePlacementConfig& config = {});
/// The result's placement keeps a pointer to the Problem: a temporary one
/// is refused.
TreePlacementResult run_tree_placement(drp::Problem&&, const net::Graph&,
                                       const TreePlacementConfig& = {})
    = delete;

/// Closest-ancestor policy cost of serving object `k` through `open` (which
/// must contain the primary).  Exposed so tests can brute-force tiny trees
/// against the DP.
double tree_policy_cost(const drp::Problem& problem, const net::Graph& tree,
                        drp::ObjectIndex k,
                        const std::vector<drp::ServerId>& open);

}  // namespace agtram::baselines
