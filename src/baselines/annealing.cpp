#include "baselines/annealing.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "baselines/selfish_caching.hpp"
#include "common/prng.hpp"
#include "drp/cost_model.hpp"
#include "drp/delta_evaluator.hpp"
#include "obs/obs.hpp"

namespace agtram::baselines {

using common::Rng;

namespace {

/// A fully-drawn proposal: the move (or None when the draw was infeasible)
/// plus the proposal's rng stream positioned after the move draws, from
/// which the acceptance test takes its uniform.
struct MoveSpec {
  enum class Kind { None, Add, Drop, Swap } kind = Kind::None;
  drp::ServerId a = 0;  // added/dropped/swap-from
  drp::ServerId b = 0;  // swap-to
  drp::ObjectIndex object = 0;
  Rng accept_rng{0};
};

/// Draws proposal j read-only against the current placement.  The stream is
/// seeded from (seed, j) alone; the draw sequence mirrors the historical
/// mutate-first proposer: object, move kind, then the kind's site picks,
/// with infeasible draws collapsing to None.
MoveSpec draw_spec(const drp::Problem& p,
                   const drp::ReplicaPlacement& placement, std::uint64_t seed,
                   std::uint64_t j) {
  Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (j + 1)));
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
  spec.accept_rng = rng;
  return spec;
}

double delta_of(const drp::DeltaEvaluator& eval, const MoveSpec& spec) {
  switch (spec.kind) {
    case MoveSpec::Kind::Add:
      return eval.delta_of_add(spec.a, spec.object);
    case MoveSpec::Kind::Drop:
      return eval.delta_of_drop(spec.a, spec.object);
    case MoveSpec::Kind::Swap:
      return eval.delta_of_swap(spec.a, spec.b, spec.object);
    case MoveSpec::Kind::None:
      break;
  }
  return 0.0;
}

/// Naive oracle pricing: apply, measure, leave applied (the caller keeps the
/// mutation on accept and undoes on reject).
double measure_applied(drp::ReplicaPlacement& placement, const MoveSpec& spec) {
  const double before = drp::CostModel::object_cost(placement, spec.object);
  switch (spec.kind) {
    case MoveSpec::Kind::Add:
      placement.add_replica(spec.a, spec.object);
      break;
    case MoveSpec::Kind::Drop:
      placement.remove_replica(spec.a, spec.object);
      break;
    case MoveSpec::Kind::Swap:
      placement.remove_replica(spec.a, spec.object);
      placement.add_replica(spec.b, spec.object);
      break;
    case MoveSpec::Kind::None:
      break;
  }
  return drp::CostModel::object_cost(placement, spec.object) - before;
}

void undo(drp::ReplicaPlacement& placement, const MoveSpec& spec) {
  switch (spec.kind) {
    case MoveSpec::Kind::Add:
      placement.remove_replica(spec.a, spec.object);
      break;
    case MoveSpec::Kind::Drop:
      placement.add_replica(spec.a, spec.object);
      break;
    case MoveSpec::Kind::Swap:
      placement.remove_replica(spec.b, spec.object);
      placement.add_replica(spec.a, spec.object);
      break;
    case MoveSpec::Kind::None:
      break;
  }
}

void apply(drp::DeltaEvaluator& eval, const MoveSpec& spec) {
  switch (spec.kind) {
    case MoveSpec::Kind::Add:
      eval.add_replica(spec.a, spec.object);
      break;
    case MoveSpec::Kind::Drop:
      eval.remove_replica(spec.a, spec.object);
      break;
    case MoveSpec::Kind::Swap:
      eval.remove_replica(spec.a, spec.object);
      eval.add_replica(spec.b, spec.object);
      break;
    case MoveSpec::Kind::None:
      break;
  }
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

  const std::size_t batch = use_delta ? std::max<std::size_t>(1, config.batch)
                                      : 1;
  std::vector<MoveSpec> specs;
  specs.reserve(batch);

  std::size_t consumed = 0;
  while (consumed < config.proposals) {
    const std::size_t batch_start = consumed;
    const std::size_t batch_end =
        std::min(batch_start + batch, config.proposals);
    specs.clear();
    for (std::size_t j = batch_start; j < batch_end; ++j) {
      specs.push_back(draw_spec(problem, current(), config.seed, j));
    }

    bool accepted_in_batch = false;
    for (std::size_t j = batch_start; j < batch_end; ++j) {
      MoveSpec& spec = specs[j - batch_start];
      AGTRAM_OBS_COUNT("sa.proposals", 1);
      if (spec.kind != MoveSpec::Kind::None) {
        // Until a move is accepted the placement is the one the batch was
        // drawn against, so each spec is priced where it was drawn.
        const double delta = use_delta ? delta_of(*eval, spec)
                                       : measure_applied(placement, spec);
        const bool accept =
            delta < 0.0 ||
            (temperature > floor_temperature &&
             spec.accept_rng.uniform() < std::exp(-delta / temperature));
        if (accept) {
          AGTRAM_OBS_COUNT("sa.accepted", 1);
          if (use_delta) apply(*eval, spec);
          current_cost += delta;
          if (current_cost < best_cost) {
            best_cost = current_cost;
            best = current();
          }
          accepted_in_batch = true;
        } else if (!use_delta) {
          undo(placement, spec);
        }
      }
      if ((j + 1) % config.cooling_interval == 0) {
        temperature *= config.cooling_rate;
      }
      consumed = j + 1;
      if (accepted_in_batch) {  // tail specs are stale — redraw
        AGTRAM_OBS_COUNT("sa.stale_discarded", batch_end - consumed);
        break;
      }
    }
  }
  return best;
}

}  // namespace agtram::baselines
