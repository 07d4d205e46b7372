// Online re-convergence engine (DESIGN.md §12, ROADMAP item 1).
//
// The paper solves a static one-shot instance; `OnlineMechanism` keeps that
// solution *live* across a stream of events — demand drift, replica loss,
// server fail/join, object delete/create — and re-converges incrementally
// instead of re-running the mechanism from scratch.  The engine owns the
// mutable Problem, the current ReplicaPlacement (inside a DeltaEvaluator so
// per-object costs stay exact across mutations), and re-converges after each
// event batch by warm-starting the round protocol restricted to a *dirty
// agent set*:
//
//   event                     dirty agents                    why
//   ---------------------     ------------------------------  ----------------
//   DemandDelta(i,k,dr,dw)    {i} ∪ (dw≠0 ? readers(k) : ∅)   r_ik is i's own
//                                                             term; w_total(k)
//                                                             prices every
//                                                             reader's bid
//   ReplicaLoss(s,k)          readers(k) ∪ {s}                NN_·k rose; s
//                                                             freed capacity
//   ServerFail(s)             ∪_k readers(k) over dropped k   NN rose per lost
//                             (k walks server_objects(s))     object; s gains
//                                                             nothing (capacity
//                                                             clamps to used)
//   ServerJoin(s)             {s}                             capacity restored
//   ObjectDelete(k)           former extra replicators of k   they freed
//                                                             capacity; readers
//                                                             only lose value
//   ObjectCreate(k)           readers(k)                      demand restored
//
// Identity contract: at quiescence every agent is retired, and both
// retirement conditions (value ≤ 0, infeasible capacity) are *monotone*
// under everything the repair run itself does.  An agent outside the dirty
// set therefore still has no positive feasible candidate: rebuilding it
// fresh and polling it would produce empty reports that touch neither the
// argmax nor the second price.  Hence the repair run restricted to the dirty
// set is byte-identical — rounds, payments, placement, NN caches — to the
// same warm-started run with *every* server participating.  That
// full-participation re-solve is the differential oracle this engine can run
// after every batch (`OnlineConfig::differential_oracle`); tests and
// the bench harness turn it on and fail hard on the first differing byte.
// The from-scratch `run_agt_ram` re-solve is the *cost* baseline the bench
// compares against (what a system without this engine must pay per event);
// it is not a placement oracle because the greedy round sequence is
// path-dependent and the mechanism never evicts.
//
// Fixed-universe event model: all M servers and N objects are provisioned at
// build time; events toggle activity *inside* that structural support.
// Demand moves only on existing cells (AccessMatrix::apply_demand_delta),
// deletes stash demand and recreate restores it, fail/join swing capacity
// between 0-free and nominal.  This keeps the CSR pools, the distance
// matrix, and the flat NN caches structurally immutable — no O(M²) rebuilds
// anywhere on the event path.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/agt_ram.hpp"
#include "drp/delta_evaluator.hpp"
#include "drp/placement.hpp"
#include "drp/problem.hpp"

namespace agtram::core {

/// In-place demand mutation on an existing (server, object) cell.  Rejected
/// if the cell is structurally absent, a count would go negative, or reads
/// would appear on a cell outside the structural readers(k) list (see
/// AccessMatrix::apply_demand_delta).
struct DemandDelta {
  drp::ServerId server;
  drp::ObjectIndex object;
  std::int64_t delta_reads;
  std::int64_t delta_writes;
};

/// A single non-primary replica of `object` on `server` is lost (disk
/// corruption on an otherwise healthy node).  Re-replication, if worthwhile,
/// happens through the repair rounds.
struct ReplicaLoss {
  drp::ServerId server;
  drp::ObjectIndex object;
};

/// Replica-storage failure: the server drops every non-primary replica it
/// holds and its capacity clamps to what remains (primaries are immovable
/// and survive; its demand keeps flowing and is served by other replicas).
struct ServerFail {
  drp::ServerId server;
};

/// Recovery: capacity restored to the nominal value captured at
/// construction.  Joining a never-failed server is a no-op (and produces an
/// empty dirty set).
struct ServerJoin {
  drp::ServerId server;
};

/// Deactivates an object: demand is stashed and zeroed, extra replicas are
/// dropped (freeing capacity); the primary copy stays (immovable).
struct ObjectDelete {
  drp::ObjectIndex object;
};

/// Re-activates a previously deleted object, restoring its stashed demand.
struct ObjectCreate {
  drp::ObjectIndex object;
};

using OnlineEvent = std::variant<DemandDelta, ReplicaLoss, ServerFail,
                                 ServerJoin, ObjectDelete, ObjectCreate>;

struct OnlineConfig {
  /// Mechanism configuration used for the initial solve, every repair run,
  /// and the oracle re-solve.  All report modes produce byte-identical
  /// allocations, so the choice only affects speed.  A repair run always
  /// drains its dirty set (`max_rounds` bounds only the initial solve and
  /// the oracle, which refuse to stop short).
  AgtRamConfig mechanism;
  /// Demand-aware eviction (DESIGN.md §13): after the repair run of a
  /// batch, walk the objects whose demand the batch touched and
  /// repeatedly drop the non-primary replica with the most negative
  /// delta-OTC drop benefit (DeltaEvaluator::delta_of_drop < 0 means the
  /// total cost strictly falls without it), at most this many drops per
  /// batch (0 = off).  The mechanism itself never evicts, so under drift a
  /// replica placed for yesterday's mix can turn into pure broadcast
  /// weight; this bounded pass retires it.  Every drop only *raises* other
  /// agents' valuations for that object, so the evicting servers and the
  /// object's readers are carried into the next batch's dirty set — the
  /// monotone-retirement identity argument then holds batch to batch.
  std::size_t eviction_limit = 0;
  /// After every batch, re-run the mechanism warm-started from the
  /// pre-repair placement with full participation and require byte-identical
  /// rounds, payments, placement, and NN caches; throws std::logic_error on
  /// the first mismatch.  Costs a full re-solve per batch: tests and bench
  /// verification only.  Checked *before* the eviction pass (the oracle
  /// characterises the repair run, eviction is a separate post-pass).
  bool differential_oracle = false;
};

/// What one apply_events call did (per-batch diagnostics; the same numbers
/// feed the `online.*` obs counters).
struct BatchOutcome {
  std::size_t events_applied = 0;
  std::size_t dirty_agents = 0;      ///< repair participants (incl. carryover)
  std::size_t reports_saved = 0;     ///< servers the repair never polled
  std::size_t repair_rounds = 0;     ///< repair allocations, one replica each
  std::size_t replicas_lost = 0;     ///< dropped by loss/fail/delete events
  std::size_t replicas_evicted = 0;  ///< dropped by the eviction pass
  double eviction_cost_delta = 0.0;  ///< <= 0: OTC change from evictions
  std::uint64_t reports_computed = 0;
  std::uint64_t candidate_evaluations = 0;
  double payments = 0.0;             ///< second-price charges this batch
  double total_cost = 0.0;           ///< OTC after the batch (exact, cached)
  bool oracle_checked = false;
  /// Objects whose replicator sets this batch mutated — through loss, fail,
  /// delete, a repair round or an eviction — ascending, each once.  An
  /// object appears even when a later mutation restored its set (its NN
  /// node cache may still differ under ties).  Also lists the mutations of
  /// any earlier batch that threw.  Every other object's replicators and NN
  /// caches are as the previous returned outcome left them, which is what
  /// lets a routing snapshot be patched instead of rebuilt.
  std::vector<drp::ObjectIndex> changed_objects;
  /// Wall seconds per stage, on one steady clock.  They sum to at most the
  /// call's wall time; the rest is bookkeeping and, when on, the oracle.
  double events_seconds = 0.0;    ///< events + the once-per-object re-price
  double repair_seconds = 0.0;    ///< agent build, rounds, cache re-attach
  double eviction_seconds = 0.0;  ///< the eviction pass (0 when it is off)
};

/// Byte-level placement comparison: replicator sets, used capacities, and
/// the flat NN caches (distance *and* recorded node) must all agree.  On
/// mismatch returns false and, when `why` is non-null, describes the first
/// difference.  Exposed for the differential tests and the bench harness.
bool placements_identical(const drp::ReplicaPlacement& a,
                          const drp::ReplicaPlacement& b,
                          std::string* why = nullptr);

class OnlineMechanism {
 public:
  /// Takes ownership of the instance (the engine mutates demand and
  /// capacity in place) and runs the initial full mechanism to quiescence.
  explicit OnlineMechanism(drp::Problem problem, OnlineConfig config = {});

  // The DeltaEvaluator and every live ReplicaPlacement hold pointers into
  // problem_; the engine is intentionally not copyable or movable.
  OnlineMechanism(const OnlineMechanism&) = delete;
  OnlineMechanism& operator=(const OnlineMechanism&) = delete;

  /// Applies one event batch, then re-converges the dirty set via a
  /// warm-started restricted mechanism run whose agents are built on the
  /// shared pool.  Demand-touched objects are re-priced once, after the
  /// last event, in one parallel_for on the same pool.  Events are validated
  /// and applied in order; an invalid event throws std::invalid_argument
  /// with the engine state unchanged by that event.  Prior events in the
  /// batch remain applied, with exact cost caches, and their dirty agents
  /// are carried into the next batch, which repairs them
  /// (pending_carryover() lists them meanwhile).  ServerFail
  /// throws std::logic_error if a replica survives its walk of the server's
  /// demand row (an engine invariant, not an input error).
  BatchOutcome apply_events(std::span<const OnlineEvent> batch);

  const drp::Problem& problem() const noexcept { return *problem_; }
  const drp::ReplicaPlacement& placement() const noexcept {
    return eval_->placement();
  }
  const drp::DeltaEvaluator& evaluator() const noexcept { return *eval_; }

  /// Exact current OTC (DeltaEvaluator::total — bit-identical to
  /// CostModel::total_cost on the live placement).
  double total_cost() const { return eval_->total(); }

  bool server_failed(drp::ServerId i) const { return failed_[i] != 0; }
  bool object_deleted(drp::ObjectIndex k) const { return deleted_[k] != 0; }

  /// Cumulative per-agent outcomes across the initial solve and every
  /// repair run (indexed by server id).
  const std::vector<AgentOutcome>& agent_outcomes() const noexcept {
    return agents_;
  }

  /// Allocations made by the initial solve (before any event).
  std::size_t initial_rounds() const noexcept { return initial_rounds_; }
  /// Allocations made across all repair runs so far.
  std::size_t repair_rounds_total() const noexcept {
    return rounds_total_ - initial_rounds_;
  }
  std::size_t events_applied() const noexcept { return events_; }
  /// Participants queued for the next batch because the eviction pass
  /// dropped a replica or a batch threw before its repair (empty in steady
  /// state without eviction).
  std::span<const drp::ServerId> pending_carryover() const noexcept {
    return carryover_;
  }

 private:
  struct StashCell {
    drp::ServerId server;
    std::uint64_t reads;
    std::uint64_t writes;
  };

  void mark_dirty(drp::ServerId i);
  void mark_demand_touched(drp::ObjectIndex k);
  void mark_changed(drp::ObjectIndex k);
  /// Drops a replica through the evaluator and lists k as changed.
  void drop_replica(drp::ServerId i, drp::ObjectIndex k);
  void refresh_demand_touched();
  void clear_demand_touched();
  void apply_one(const OnlineEvent& event, BatchOutcome& out);
  void run_eviction(BatchOutcome& out);
  void accumulate(const MechanismResult& result);
  void run_oracle(drp::ReplicaPlacement pre_repair,
                  const std::vector<RoundRecord>& repair_rounds);

  OnlineConfig config_;
  std::unique_ptr<drp::Problem> problem_;
  std::optional<drp::DeltaEvaluator> eval_;
  std::vector<std::uint64_t> nominal_capacity_;
  std::vector<std::uint64_t> primary_load_;  ///< immovable units per server
  std::vector<char> failed_;
  std::vector<char> deleted_;
  std::vector<std::vector<StashCell>> stash_;

  // Per-batch dirty set (flags persist across batches, cleared after use).
  std::vector<char> dirty_flag_;
  std::vector<drp::ServerId> dirty_;
  std::vector<drp::ServerId> carryover_;
  // Objects whose demand this batch touched (eviction candidates).
  std::vector<char> demand_touched_flag_;
  std::vector<drp::ObjectIndex> demand_touched_;
  // Objects whose replicator sets changed since the last returned outcome.
  std::vector<char> changed_flag_;
  std::vector<drp::ObjectIndex> changed_;

  std::vector<AgentOutcome> agents_;
  std::size_t initial_rounds_ = 0;
  std::size_t rounds_total_ = 0;
  std::size_t events_ = 0;
};

}  // namespace agtram::core
