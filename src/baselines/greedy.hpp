// Centralised Greedy replica placement (comparison algorithm of Qiu,
// Padmanabhan & Voelker, INFOCOM 2001 — the paper's strongest conventional
// baseline, itself shown there to beat four other heuristics).
//
// Each step places the single replica with the largest *global* OTC
// reduction (drp::CostModel::global_benefit) anywhere in the system, until
// no placement reduces the cost.  Unlike AGT-RAM it may use servers with no
// demand of their own (hub placement) and it requires global knowledge of
// all demand — that is precisely the centralisation the paper argues
// against; it serves as the solution-quality yardstick.
//
// Implementation: drp::LazyGreedyHeap, the lazy max-heap keyed by object.
// Placing a replica of k only changes k's own candidate values (NN
// distances of k's accessors) and the chosen server's free capacity; both
// changes are monotone decreases, so stale heap entries are safely
// re-validated on pop.
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/eval_path.hpp"
#include "drp/placement.hpp"
#include "drp/problem.hpp"

namespace agtram::baselines {

struct GreedyConfig {
  /// Stop after this many placements (0 = run to exhaustion).
  std::size_t max_replicas = 0;
  /// Optional site mask: replicas may only be placed on servers whose
  /// entry is true (size M; any other size is refused with
  /// std::invalid_argument).  Used e.g. for global-view repair after a
  /// regional outage, where the dead region's servers cannot host.
  const std::vector<bool>* allowed_sites = nullptr;
  /// Delta: loop-swapped candidate scans through drp::DeltaEvaluator
  /// (drp::run_greedy_delta: byte-identical placements, ~order-of-magnitude
  /// faster at paper scale); the heap build fans out over objects on the
  /// shared pool, each re-validation scan over servers once M reaches
  /// DeltaEvaluator::kParallelMinServers.  Naive: the original per-server
  /// global_benefit rescan.
  EvalPath eval = EvalPath::Delta;
};

drp::ReplicaPlacement run_greedy(const drp::Problem& problem,
                                 const GreedyConfig& config = {});

/// Greedy continuation from an existing scheme (repair/completion): applies
/// the same lazy global-delta loop starting from `start`.
drp::ReplicaPlacement run_greedy_from(const drp::Problem& problem,
                                      drp::ReplicaPlacement start,
                                      const GreedyConfig& config = {});

/// The placements keep a pointer to the Problem: a temporary one is refused.
drp::ReplicaPlacement run_greedy(drp::Problem&&,
                                 const GreedyConfig& = {}) = delete;
drp::ReplicaPlacement run_greedy_from(drp::Problem&&, drp::ReplicaPlacement,
                                      const GreedyConfig& = {}) = delete;

}  // namespace agtram::baselines
