#include "baselines/local_search.hpp"

#include "baselines/moves.hpp"
#include "baselines/selfish_caching.hpp"
#include "common/prng.hpp"
#include "drp/delta_evaluator.hpp"
#include "obs/obs.hpp"

namespace agtram::baselines {

using common::Rng;

namespace {

/// Stop early after this many consecutive rejected proposals.
constexpr std::size_t kQuietStreak = 2000;

drp::ServerId random_reader_or_any(const drp::Problem& p, drp::ObjectIndex k,
                                   Rng& rng) {
  const auto accessors = p.access.accessors(k);
  if (!accessors.empty() && rng.chance(0.8)) {
    return accessors[rng.below(accessors.size())].server;
  }
  return static_cast<drp::ServerId>(rng.below(p.server_count()));
}

/// Draws one proposal read-only against the current placement: object,
/// move kind, then the kind's site picks (add and swap targets are
/// reader-biased), with infeasible draws collapsing to None.
MoveSpec draw_move(const drp::Problem& p,
                   const drp::ReplicaPlacement& placement, Rng& rng) {
  MoveSpec spec;
  const auto k = static_cast<drp::ObjectIndex>(rng.below(p.object_count()));
  spec.object = k;
  switch (rng.below(3)) {
    case 0: {
      const drp::ServerId i = random_reader_or_any(p, k, rng);
      if (placement.can_replicate(i, k)) {
        spec.kind = MoveSpec::Kind::Add;
        spec.a = i;
      }
      break;
    }
    case 1: {
      const auto reps = placement.replicators(k);
      const drp::ServerId i = reps[rng.below(reps.size())];
      if (i != p.primary[k]) {
        spec.kind = MoveSpec::Kind::Drop;
        spec.a = i;
      }
      break;
    }
    default: {
      // The target is drawn before the source: the historical order, which
      // fixes each seed's trajectory.
      const drp::ServerId to = random_reader_or_any(p, k, rng);
      const auto reps = placement.replicators(k);
      const drp::ServerId from = reps[rng.below(reps.size())];
      // Capacity at `to` is unaffected by dropping `from`, so the plain
      // can_replicate test equals a drop-then-check sequence.
      if (from == to || from == p.primary[k] ||
          placement.is_replicator(to, k) || !placement.can_replicate(to, k)) {
        break;
      }
      spec.kind = MoveSpec::Kind::Swap;
      spec.a = from;
      spec.b = to;
      break;
    }
  }
  return spec;
}

/// The proposal loop; `accept(move)` prices a feasible move, keeps it iff it
/// strictly lowers the cost, and says whether it did.  Both paths share the
/// draws, so the rng stream cannot diverge between them.
template <typename Accept>
void propose_loop(const drp::Problem& problem, const LocalSearchConfig& config,
                  const drp::ReplicaPlacement& placement, Rng& rng,
                  Accept&& accept) {
  std::size_t quiet = 0;
  for (std::size_t proposal = 0;
       proposal < config.max_proposals && quiet < kQuietStreak;
       ++proposal) {
    const MoveSpec move = draw_move(problem, placement, rng);
    const bool accepted = move.kind != MoveSpec::Kind::None && accept(move);
    AGTRAM_OBS_COUNT("local_search.proposals", 1);
    if (accepted) AGTRAM_OBS_COUNT("local_search.accepted", 1);
    quiet = accepted ? 0 : quiet + 1;
  }
}

}  // namespace

drp::ReplicaPlacement run_local_search(const drp::Problem& problem,
                                       const LocalSearchConfig& config) {
  Rng rng(config.seed);
  // Seed from the selfish equilibrium — cheap and already decent.
  SelfishCachingConfig seed_cfg;
  seed_cfg.seed = config.seed ^ 0xdecaf;
  drp::ReplicaPlacement placement =
      run_selfish_caching(problem, seed_cfg).placement;

  if (config.eval == EvalPath::Naive) {
    propose_loop(problem, config, placement, rng, [&](const MoveSpec& move) {
      const bool lowers = measure_applied(placement, move) < 0.0;
      if (!lowers) undo(placement, move);
      return lowers;
    });
    return placement;
  }
  drp::DeltaEvaluator eval(std::move(placement));
  propose_loop(problem, config, eval.placement(), rng,
               [&](const MoveSpec& move) {
                 const bool lowers = delta_of(eval, move) < 0.0;
                 if (lowers) apply(eval, move);
                 return lowers;
               });
  return std::move(eval).take_placement();
}

}  // namespace agtram::baselines
