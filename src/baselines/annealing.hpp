// Simulated annealing over replication schemes — the standard stochastic
// metaheuristic counterpart to GRA in the FAP literature; included so the
// extended comparison has a hill-climbing-with-escapes reference alongside
// the genetic search.
//
// Same add/drop/swap move set as local search; worsening moves are
// accepted with probability exp(-delta / T) under a geometric cooling
// schedule.  The incumbent (best-ever) scheme is returned.
#pragma once

#include <cstdint>

#include "baselines/eval_path.hpp"
#include "drp/placement.hpp"
#include "drp/problem.hpp"

namespace agtram::baselines {

// Proposals are drawn from per-proposal rng streams (stream j is seeded from
// `seed` and j alone), so proposal j's moves and acceptance draw do not
// depend on how many proposals came before it in the same batch.  That makes
// the trajectory independent of the speculative batch size — delta batches
// of any size, the naive path, and any proposal budget all walk the same
// accepted prefix.
struct AnnealingConfig {
  std::uint64_t seed = 1;
  std::size_t proposals = 30000;
  /// Start from the selfish-caching equilibrium instead of primaries-only
  /// (a cold random walk cannot reach the ~10^3-replica region of good
  /// schemes within any reasonable proposal budget).
  bool seed_from_equilibrium = true;
  /// Initial temperature as a fraction of the starting OTC (auto-scaled).
  double initial_temperature_fraction = 2e-5;
  /// Geometric cooling applied every `cooling_interval` proposals.
  double cooling_rate = 0.95;
  std::size_t cooling_interval = 500;
  /// Delta: proposals drawn in speculative batches and priced read-only
  /// through drp::DeltaEvaluator as they are consumed (the tail after an
  /// accepted move is discarded, so every consumed proposal saw the
  /// placement it was drawn against).
  /// Naive: one mutate-measure-undo evaluation per proposal.
  EvalPath eval = EvalPath::Delta;
  /// Speculative batch size for the delta path (1 = no speculation).
  std::size_t batch = 32;
};

drp::ReplicaPlacement run_annealing(const drp::Problem& problem,
                                    const AnnealingConfig& config = {});

}  // namespace agtram::baselines
