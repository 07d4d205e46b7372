// The add/drop/swap proposals LocalSearch and simulated annealing share
// (baselines-internal).  Each algorithm draws its own proposals; both price
// them here, through drp::DeltaEvaluator on the delta path or by mutating,
// measuring and undoing on the naive path.  A proposal touches one object,
// so its price is that object's cost change, and the two paths agree bit for
// bit (DESIGN.md §8).
#pragma once

#include "drp/cost_model.hpp"
#include "drp/delta_evaluator.hpp"
#include "drp/placement.hpp"

namespace agtram::baselines {

/// A drawn proposal, or None when the draw was infeasible.
struct MoveSpec {
  enum class Kind { None, Add, Drop, Swap } kind = Kind::None;
  drp::ServerId a = 0;  // added/dropped/swap-from
  drp::ServerId b = 0;  // swap-to
  drp::ObjectIndex object = 0;
};

/// The proposal's cost change, read-only.
inline double delta_of(const drp::DeltaEvaluator& eval, const MoveSpec& spec) {
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

inline void apply(drp::DeltaEvaluator& eval, const MoveSpec& spec) {
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

/// Naive oracle pricing: apply, measure, leave applied (the caller keeps the
/// mutation on accept and undoes it on reject).
inline double measure_applied(drp::ReplicaPlacement& placement,
                              const MoveSpec& spec) {
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

inline void undo(drp::ReplicaPlacement& placement, const MoveSpec& spec) {
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

}  // namespace agtram::baselines
