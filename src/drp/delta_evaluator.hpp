// Delta-OTC evaluation engine shared by the baseline placement algorithms
// (DESIGN.md §8).
//
// Owns a ReplicaPlacement plus two per-object caches kept exact across
// mutations:
//
//  * obj_cost_[k]   — CostModel::object_cost(placement, k), refreshed from
//                     scratch (never adjusted in place) whenever object k is
//                     mutated, so every cached value carries the exact bits a
//                     fresh evaluation would produce;
//  * opt_saving_[k] — Aε-Star's admissible per-object saving bound
//                     Σ_readers r·o·NN over non-replicator readers, refreshed
//                     in the same walk.
//
// total() lazily re-sums obj_cost_ in object order — the same association
// CostModel::total_cost uses over its parallel partials — so it is
// bit-identical to a full recomputation at ~1/|accessors| of the work
// (O(N) float adds when dirty, O(1) when clean).
//
// The hypothetical evaluators (cost_if_added/dropped/swapped) replay
// object_cost's exact loop structure against a *virtual* replicator set
// without touching the placement: NN distances are integral minima, so the
// virtual NN values equal what add/remove/rebuild would cache, and the
// floating-point op sequence matches a fresh post-mutation object_cost
// term for term.  That is the whole invariant: delta = hypothetical − cached
// is bit-identical to (after − before) measured around a real mutation.
//
// best_add_for_object is the loop-swapped, optionally thread-parallel
// candidate scan behind Greedy: instead of per-server global_benefit calls
// that stride down distance-matrix columns, it walks each reader's distance
// *row* sequentially, accumulating per-server benefits in slot order — the
// identical op order per server as CostModel::global_benefit, hence
// bit-identical winners.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "drp/cost_model.hpp"
#include "drp/placement.hpp"
#include "drp/problem.hpp"

namespace agtram::drp {

class DeltaEvaluator {
 public:
  /// Per-server scan cutoff: below this many servers the chunked row walk of
  /// best_add_for_object cannot amortise a pool fork, so the scan stays
  /// inline even when asked to parallelise.  Public so benches and obs
  /// decision blocks can report the threshold the scan compared against.
  static constexpr std::size_t kParallelMinServers = 1024;

  explicit DeltaEvaluator(ReplicaPlacement placement);

  DeltaEvaluator(const DeltaEvaluator&) = default;
  DeltaEvaluator& operator=(const DeltaEvaluator&) = default;
  DeltaEvaluator(DeltaEvaluator&&) noexcept = default;
  DeltaEvaluator& operator=(DeltaEvaluator&&) noexcept = default;

  const Problem& problem() const noexcept { return placement_.problem(); }
  const ReplicaPlacement& placement() const noexcept { return placement_; }
  /// Moves the placement out (the evaluator is dead afterwards).
  ReplicaPlacement take_placement() && { return std::move(placement_); }

  /// Lends the placement out for external mutation (O(1) moves both ways —
  /// no arena copy).  Between detach and attach the evaluator is hollow:
  /// only detach/attach may be called.  The online engine uses this to hand
  /// its live placement to run_agt_ram_from and take the repaired one back.
  ReplicaPlacement detach_placement() { return std::move(placement_); }

  /// Re-attaches a placement previously lent out via detach_placement and
  /// re-refreshes exactly the objects whose replicator sets were mutated
  /// while detached (`touched` need not be sorted or unique).  Caches for
  /// untouched objects are reused verbatim — that is the whole point; the
  /// caller owns the obligation that `touched` covers every mutated object.
  void attach_placement(ReplicaPlacement placement,
                        std::span<const ObjectIndex> touched);

  /// Cached per-object cost; equals CostModel::object_cost bit for bit.
  double object_cost(ObjectIndex k) const { return obj_cost_[k]; }

  /// Σ_k of the cached Σ r·o·NN over non-replicator readers of k
  /// (Aε-Star's bound), summed in object order.
  double optimistic_saving() const;

  /// Bit-identical to CostModel::total_cost(placement()); O(N) doubles
  /// re-summed after a mutation, O(1) while untouched.
  double total() const;

  // Read-only hypothetical object costs.  Preconditions mirror the
  // placement mutators': add requires can_replicate(i, k); drop requires a
  // non-primary replicator; swap additionally requires `to` not to be a
  // replicator and to have capacity (capacity at `to` is unaffected by
  // dropping `from`, so placement().can_replicate(to, k) is the right test).
  double cost_if_added(ServerId i, ObjectIndex k) const;
  double cost_if_dropped(ServerId i, ObjectIndex k) const;
  double cost_if_swapped(ServerId from, ServerId to, ObjectIndex k) const;

  double delta_of_add(ServerId i, ObjectIndex k) const {
    return cost_if_added(i, k) - obj_cost_[k];
  }
  double delta_of_drop(ServerId i, ObjectIndex k) const {
    return cost_if_dropped(i, k) - obj_cost_[k];
  }
  double delta_of_swap(ServerId from, ServerId to, ObjectIndex k) const {
    return cost_if_swapped(from, to, k) - obj_cost_[k];
  }

  bool can_replicate(ServerId i, ObjectIndex k) const {
    return placement_.can_replicate(i, k);
  }

  /// Mutators; keep the caches exact by refreshing object k from scratch.
  void add_replica(ServerId i, ObjectIndex k);
  void remove_replica(ServerId i, ObjectIndex k);

  /// Re-derives object k's caches after an in-place demand mutation
  /// (AccessMatrix::apply_demand_delta).  The caches are demand-dependent —
  /// obj_cost_ folds r/w volumes and opt_saving_ folds reads — so any demand
  /// change on k without this call leaves them silently stale; the
  /// constructor-time refresh was the only writer before the online engine
  /// made demand mutable.
  void refresh_after_demand_change(ObjectIndex k);

  /// The same for a batch of distinct objects, re-priced in one
  /// parallel_for on the shared pool: each object writes only its own cache
  /// slots, so the bits equal the one-object calls in any order.  `objects`
  /// must not repeat an object.
  void refresh_after_demand_change(std::span<const ObjectIndex> objects);

  struct BestAdd {
    double benefit = 0.0;
    ServerId server = 0;
  };

  /// Reusable per-scan buffers (caller-owned so concurrent scans from a
  /// parallel outer loop each bring their own).
  struct ScanScratch {
    std::vector<double> benefit;
    std::vector<std::uint8_t> member;  ///< per-slot replicator mask
    std::vector<double> w_dense;       ///< per-server w_ik scatter (0.0 gaps)
  };

  /// argmax_i global_benefit(i, k) over feasible servers (optional site
  /// mask), strict-> with server 0 / benefit 0 as the floor — exactly
  /// Greedy's naive scan.  Loop-swapped: walks each active reader's distance
  /// row sequentially; per-server accumulation stays in slot order, so every
  /// benefit value is bit-identical to CostModel::global_benefit.  When
  /// `parallel` is set the server axis is chunked over the shared pool
  /// (disjoint writes; deterministic serial argmax afterwards).
  BestAdd best_add_for_object(ObjectIndex k,
                              const std::vector<bool>* allowed_sites,
                              ScanScratch& scratch, bool parallel) const;

 private:
  void refresh(ObjectIndex k);
  /// refresh() without its counter: the parallel loops count their whole
  /// range once instead of once per object from every pool worker.
  void reprice(ObjectIndex k);

  ReplicaPlacement placement_;
  std::vector<double> obj_cost_;
  std::vector<double> opt_saving_;
  mutable double total_ = 0.0;
  mutable bool total_valid_ = false;
};

}  // namespace agtram::drp
