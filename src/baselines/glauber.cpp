#include "baselines/glauber.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "baselines/moves.hpp"
#include "common/prng.hpp"
#include "drp/cost_model.hpp"
#include "drp/delta_evaluator.hpp"
#include "obs/obs.hpp"

namespace agtram::baselines {

namespace {

/// T_0 as a fraction of the primaries-only OTC (auto-scaled, like SA).
constexpr double kInitialTemperatureFraction = 2e-5;
/// Geometric cooling applied every sweep.
constexpr double kCoolingRate = 0.85;

}  // namespace

GlauberResult run_glauber(const drp::Problem& problem,
                          const GlauberConfig& config) {
  AGTRAM_OBS_SPAN("glauber.run");
  const bool delta_path = config.eval == EvalPath::Delta;
  common::Rng rng(config.seed);

  // Heat-bath temperature anchored to the primaries-only OTC, like SA's
  // auto-scaled schedule; the floor keeps exp(delta / T) well-defined.
  double temperature = std::max(
      kInitialTemperatureFraction * drp::CostModel::initial_cost(problem),
      1e-12);

  std::optional<drp::DeltaEvaluator> evaluator;
  std::optional<drp::ReplicaPlacement> naive;
  if (delta_path) {
    evaluator.emplace(drp::ReplicaPlacement(problem));
  } else {
    naive.emplace(problem);
  }
  const auto& placement = [&]() -> const drp::ReplicaPlacement& {
    return delta_path ? evaluator->placement() : *naive;
  };

  GlauberResult result{drp::ReplicaPlacement(problem), 0.0, 0, 0, 0};
  const std::size_t m = problem.server_count();
  for (std::size_t sweep = 0; sweep < config.sweeps; ++sweep) {
    // Every server with demand proposes one flip per sweep, in id order —
    // the chain is deterministic in (seed) because the single rng stream is
    // drawn in (sweep, server) order on identical placement states.
    for (drp::ServerId i = 0; i < m; ++i) {
      const auto local = problem.access.server_objects(i);
      if (local.empty()) continue;
      const drp::ObjectIndex k = local[rng.below(local.size())].object;

      // Flip direction from the server's current membership; proposals the
      // placement model forbids (primary drop, no capacity) are withheld
      // locally and never reach the wire.
      MoveSpec flip{MoveSpec::Kind::Add, i, 0, k};
      if (placement().is_replicator(i, k)) {
        if (problem.primary[k] == i) continue;
        flip.kind = MoveSpec::Kind::Drop;
      } else if (!placement().can_replicate(i, k)) {
        continue;
      }

      // Local pricing: the exact OTC delta of the flip.  The naive oracle
      // measures it on the applied flip; DeltaEvaluator's core invariant is
      // that its read-only delta carries the same bits.
      const double delta = delta_path ? delta_of(*evaluator, flip)
                                      : measure_applied(*naive, flip);

      ++result.proposals;
      const double accept_probability =
          1.0 / (1.0 + std::exp(delta / temperature));
      if (rng.uniform() < accept_probability) {
        ++result.accepted;
        if (delta_path) apply(*evaluator, flip);
      } else if (!delta_path) {
        undo(*naive, flip);
      }
    }

    ++result.sweeps;
    AGTRAM_OBS_COUNT("glauber.sweeps", 1);
    temperature = std::max(temperature * kCoolingRate, 1e-12);
  }

  AGTRAM_OBS_COUNT("glauber.proposals", result.proposals);
  AGTRAM_OBS_COUNT("glauber.accepted", result.accepted);
  result.final_cost = delta_path ? evaluator->total()
                                 : drp::CostModel::total_cost(*naive);
  result.placement = delta_path ? std::move(*evaluator).take_placement()
                                : std::move(*naive);
  return result;
}

}  // namespace agtram::baselines
