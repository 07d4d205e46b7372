#include "baselines/annealing.hpp"

#include <cmath>
#include <optional>
#include <utility>

#include "baselines/moves.hpp"
#include "baselines/selfish_caching.hpp"
#include "common/prng.hpp"
#include "drp/cost_model.hpp"
#include "drp/delta_evaluator.hpp"
#include "obs/obs.hpp"

namespace agtram::baselines {

using common::Rng;

namespace {

/// Draws one proposal read-only against the current placement from its own
/// stream `rng`; the acceptance test takes its uniform from the same stream
/// afterwards.  The draw sequence mirrors the historical mutate-first
/// proposer: object, move kind, then the kind's site picks, with infeasible
/// draws collapsing to None.
MoveSpec draw_spec(const drp::Problem& p,
                   const drp::ReplicaPlacement& placement, Rng& rng) {
  MoveSpec spec;
  const auto k = static_cast<drp::ObjectIndex>(rng.below(p.object_count()));
  spec.object = k;
  switch (rng.below(3)) {
    case 0: {  // add at a reader (biased) or anywhere
      const auto accessors = p.access.accessors(k);
      const drp::ServerId i =
          !accessors.empty() && rng.chance(0.8)
              ? accessors[rng.below(accessors.size())].server
              : static_cast<drp::ServerId>(rng.below(p.server_count()));
      if (placement.can_replicate(i, k)) {
        spec.kind = MoveSpec::Kind::Add;
        spec.a = i;
      }
      break;
    }
    case 1: {  // drop a non-primary replica
      const auto reps = placement.replicators(k);
      const drp::ServerId i = reps[rng.below(reps.size())];
      if (i != p.primary[k]) {
        spec.kind = MoveSpec::Kind::Drop;
        spec.a = i;
      }
      break;
    }
    default: {  // swap a replica to another server
      const auto reps = placement.replicators(k);
      const drp::ServerId from = reps[rng.below(reps.size())];
      const drp::ServerId to =
          static_cast<drp::ServerId>(rng.below(p.server_count()));
      if (from == p.primary[k] || from == to ||
          placement.is_replicator(to, k)) {
        break;
      }
      // Capacity at `to` is unaffected by dropping `from`, so this equals
      // the drop-then-check feasibility test a mutating proposer would run.
      if (!placement.can_replicate(to, k)) break;
      spec.kind = MoveSpec::Kind::Swap;
      spec.a = from;
      spec.b = to;
      break;
    }
  }
  return spec;
}

}  // namespace

drp::ReplicaPlacement run_annealing(const drp::Problem& problem,
                                    const AnnealingConfig& config) {
  drp::ReplicaPlacement start = [&] {
    if (config.seed_from_equilibrium) {
      SelfishCachingConfig seed_cfg;
      seed_cfg.seed = config.seed ^ 0x5a5a;
      return run_selfish_caching(problem, seed_cfg).placement;
    }
    return drp::ReplicaPlacement(problem);
  }();

  const bool use_delta = config.eval == EvalPath::Delta;
  std::optional<drp::DeltaEvaluator> eval;
  drp::ReplicaPlacement placement(problem);
  if (use_delta) {
    eval.emplace(std::move(start));
  } else {
    placement = std::move(start);
  }
  const auto current = [&]() -> const drp::ReplicaPlacement& {
    return use_delta ? eval->placement() : placement;
  };

  double current_cost =
      use_delta ? eval->total() : drp::CostModel::total_cost(placement);
  drp::ReplicaPlacement best = current();
  double best_cost = current_cost;

  double temperature = current_cost * config.initial_temperature_fraction;
  const double floor_temperature = temperature * 1e-6 + 1e-12;

  for (std::size_t j = 0; j < config.proposals; ++j) {
    // Proposal j's stream is seeded from (seed, j) alone.
    Rng rng(config.seed ^ (0x9e3779b97f4a7c15ULL * (j + 1)));
    const MoveSpec spec = draw_spec(problem, current(), rng);
    AGTRAM_OBS_COUNT("sa.proposals", 1);
    if (spec.kind != MoveSpec::Kind::None) {
      const double delta = use_delta ? delta_of(*eval, spec)
                                     : measure_applied(placement, spec);
      const bool accept =
          delta < 0.0 ||
          (temperature > floor_temperature &&
           rng.uniform() < std::exp(-delta / temperature));
      if (accept) {
        AGTRAM_OBS_COUNT("sa.accepted", 1);
        if (use_delta) apply(*eval, spec);
        current_cost += delta;
        if (current_cost < best_cost) {
          best_cost = current_cost;
          best = current();
        }
      } else if (!use_delta) {
        undo(placement, spec);
      }
    }
    if ((j + 1) % config.cooling_interval == 0) {
      temperature *= config.cooling_rate;
    }
  }
  return best;
}

}  // namespace agtram::baselines
