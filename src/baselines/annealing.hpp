// Simulated annealing over replication schemes — the standard stochastic
// metaheuristic counterpart to GRA in the FAP literature; included so the
// extended comparison has a hill-climbing-with-escapes reference alongside
// the genetic search.
//
// Same add/drop/swap move set as local search; worsening moves are
// accepted with probability exp(-delta / T) under a geometric cooling
// schedule.  The walk starts from the selfish-caching equilibrium: a cold
// random walk from the primaries cannot reach the ~10^3-replica region of
// good schemes within any reasonable proposal budget.  The incumbent
// (best-ever) scheme is returned.
#pragma once

#include <cstdint>

#include "baselines/eval_path.hpp"
#include "drp/placement.hpp"
#include "drp/problem.hpp"

namespace agtram::baselines {

// Each proposal is drawn, priced, and then accepted or rejected, in turn.
// Proposal j draws from its own rng stream, seeded from `seed` and j alone.
// One shared stream would serve the loop as well; the per-proposal streams
// stay because they fix each seed's trajectory, which the recorded bench
// tables and the tests' placements depend on.
struct AnnealingConfig {
  std::uint64_t seed = 1;
  std::size_t proposals = 30000;
  /// Delta: each proposal priced read-only through drp::DeltaEvaluator.
  /// Naive: one mutate-measure-undo evaluation per proposal.
  EvalPath eval = EvalPath::Delta;
};

drp::ReplicaPlacement run_annealing(const drp::Problem& problem,
                                    const AnnealingConfig& config = {});
/// The placement keeps a pointer to the Problem: a temporary one is refused.
drp::ReplicaPlacement run_annealing(drp::Problem&&,
                                    const AnnealingConfig& = {}) = delete;

}  // namespace agtram::baselines
