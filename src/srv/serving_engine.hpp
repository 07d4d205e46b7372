// The serving engine (DESIGN.md §13, ROADMAP item 3): a long-running
// request front-end over the live replica placement.
//
// Per batch it (1) routes every request off the pinned RoutingSnapshot on
// the shared thread pool — shard-local scratch, no serve-path locks — while
// accumulating per-cell demand observations, a dense read-latency histogram
// (distances are bounded by the network diameter, so percentiles are exact)
// and sampled wall-clock placement-query timings; (2) merges the shards and
// feeds a drift trigger that watches two aggregated signals: the L1 volume
// drift of the observed traffic mix against the registered demand matrix,
// and a routing-cost regression estimate (observed mean read cost over the
// expectation computed at the last install); (3) on a threshold crossing —
// or every batch / never, per policy — folds the observed window back into
// the demand matrix as checked AccessMatrix::apply_demand_delta batches,
// re-converges, and installs a fresh snapshot without stalling serving.
//
// Re-convergence policies (the bench's three-way comparison):
//  * OnDrift    — core::OnlineMechanism dirty-set repair (+ the bounded
//                 eviction pass) only when the trigger fires; the system
//                 this PR exists to measure.
//  * EveryBatch — cold run_agt_ram re-solve after every batch: what a
//                 system without the online engine pays to stay converged.
//  * Static     — solve once, never re-converge: the placement-quality
//                 floor under drift.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/agt_ram.hpp"
#include "core/online.hpp"
#include "drp/problem.hpp"
#include "runtime/message_bus.hpp"
#include "srv/routing_table.hpp"
#include "srv/workload.hpp"

namespace agtram::srv {

enum class ReconvergePolicy { Static, EveryBatch, OnDrift };

struct ServingConfig {
  ReconvergePolicy policy = ReconvergePolicy::OnDrift;
  /// Solver configuration shared by the initial solve and every
  /// re-convergence (all report modes allocate identically).
  core::AgtRamConfig mechanism;
  /// OnDrift: repair-round bound per re-convergence (0 = drain).
  std::size_t max_repair_rounds = 0;
  /// OnDrift: forwarded to OnlineConfig::eviction_limit — replicas whose
  /// delta-OTC drop benefit went negative under the drifted demand are
  /// dropped, at most this many per re-convergence (0 = off).
  std::size_t eviction_limit = 0;
  /// OnDrift: forwarded to OnlineConfig::differential_oracle (tests only —
  /// every re-convergence is then byte-checked against a full re-solve).
  bool differential_oracle = false;
  /// Trigger: fire when sum |observed share - registered share| over the
  /// window's touched cells — minus the multinomial sampling-noise floor
  /// sqrt(2*cells/(pi*groups)), so a stationary replay with cells ~ draws
  /// does not fire on noise — exceeds this fraction (read+write volume).
  double volume_drift_threshold = 0.30;
  /// Trigger: fire when observed mean read cost exceeds the at-install
  /// expectation by this factor.
  double cost_regression_threshold = 1.10;
  /// Trigger: minimum routed requests in the window before it may fire
  /// (small windows are noise).
  std::uint64_t min_window_requests = 2048;
  /// Sample every Nth routed request's wall-clock query latency (0 = off).
  std::size_t latency_sample_every = 64;
  /// Routing shards per batch; 0 = pool thread count.
  std::size_t shards = 0;
  /// Pool to fan routing out on; nullptr = ThreadPool::shared().
  common::ThreadPool* pool = nullptr;
  /// Optional wire accounting: route queries, demand-delta batches, and
  /// placement installs are charged per MessageBus::WireFormat.
  runtime::MessageBus* bus = nullptr;
};

struct ServingStats {
  std::uint64_t batches = 0;
  std::uint64_t requests = 0;  ///< individual reads+writes (count-weighted)
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t local_reads = 0;  ///< served at distance 0
  double read_units = 0.0;        ///< data-unit-cost moved by reads
  double write_units = 0.0;       ///< ship + broadcast units moved by writes
  std::uint64_t installs = 0;     ///< snapshots published after construction
  std::uint64_t drift_triggers = 0;
  std::uint64_t reconverges = 0;
  std::uint64_t repair_rounds = 0;
  std::uint64_t replicas_evicted = 0;
  std::uint64_t demand_delta_cells = 0;
  double serve_seconds = 0.0;       ///< routing + aggregation wall time
  double reconverge_seconds = 0.0;  ///< deltas + solve + snapshot + install
  /// reconverge_seconds by stage, on the same steady clock.  They sum to at
  /// most it; the rest is the window reset and engine bookkeeping (and the
  /// differential oracle, when on).
  double fold_seconds = 0.0;      ///< window -> demand deltas, applied
  double repair_seconds = 0.0;    ///< dirty-set repair, or the cold re-solve
  double eviction_seconds = 0.0;  ///< the online engine's eviction pass
  double snapshot_seconds = 0.0;  ///< building the new RoutingSnapshot
  double install_seconds = 0.0;   ///< publishing it + the trigger baseline
  /// Request-weighted read serving distances, index = path cost (exact
  /// percentiles; size = diameter + 1).
  std::vector<std::uint64_t> read_cost_histogram;
  /// Sampled placement-query wall latencies, nanoseconds.
  std::vector<std::uint64_t> query_ns;

  double total_seconds() const noexcept {
    return serve_seconds + reconverge_seconds;
  }
  double mean_read_cost() const noexcept;
};

class ServingEngine {
 public:
  /// Takes ownership of the instance, runs the initial solve, and installs
  /// the first routing snapshot.
  ServingEngine(drp::Problem problem, ServingConfig config);

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Routes one request batch, then re-converges per policy.
  void run_batch(std::span<const Request> batch);

  /// Folds the current window into the demand matrix and re-converges now,
  /// regardless of the trigger (test hook; also what EveryBatch calls).
  void reconverge_now();

  const ServingStats& stats() const noexcept { return stats_; }
  const RoutingTable& routing() const noexcept { return table_; }
  /// Valid for the engine's lifetime (the table retains every epoch).
  const RoutingSnapshot* snapshot() const { return table_.acquire(); }
  const drp::Problem& problem() const;
  const drp::ReplicaPlacement& placement() const;
  /// Non-null only under ReconvergePolicy::OnDrift.
  const core::OnlineMechanism* online() const noexcept {
    return online_.get();
  }

 private:
  struct Shard {
    std::vector<std::uint64_t> hist;      ///< read distance histogram
    std::vector<std::uint64_t> query_ns;  ///< sampled query latencies
    /// (global cell index, reads, writes) per touched request group;
    /// duplicates allowed, merged serially after the join.
    std::vector<std::uint64_t> cell;
    std::vector<std::uint64_t> dr;
    std::vector<std::uint64_t> dw;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t local_reads = 0;
    double read_units = 0.0;
    double write_units = 0.0;
    double read_cost = 0.0;  ///< sum of serving distance x count (unitless)
  };

  void route_shard(const RoutingSnapshot& snap, std::span<const Request> part,
                   Shard& shard) const;
  void merge_shard(Shard& shard);
  bool drift_crossed() const;
  void install_snapshot(std::uint64_t changed_entries);
  void reset_window();
  /// Expected request-weighted mean read cost of the current snapshot under
  /// the current demand matrix (the trigger's regression baseline).
  double expected_mean_read_cost() const;

  ServingConfig config_;
  /// OnDrift owns an OnlineMechanism; Static/EveryBatch own the problem and
  /// placement directly (EveryBatch mutates demand and re-solves cold).
  std::unique_ptr<core::OnlineMechanism> online_;
  std::unique_ptr<drp::Problem> problem_;
  std::optional<drp::ReplicaPlacement> placement_;

  RoutingTable table_;
  std::uint64_t epoch_ = 0;
  common::ThreadPool* pool_ = nullptr;
  std::size_t shard_count_ = 1;
  std::vector<Shard> shards_;
  std::vector<drp::ObjectIndex> cell_object_;  ///< global cell -> object

  // Observation window (reset at each install).
  std::vector<std::uint64_t> window_reads_;   ///< per cell, slot scheme
  std::vector<std::uint64_t> window_writes_;  ///< per cell, slot scheme
  std::vector<char> window_touched_flag_;
  std::vector<std::uint64_t> window_touched_;  ///< global cell indices
  std::uint64_t window_requests_ = 0;
  std::uint64_t window_groups_ = 0;  ///< routed Request entries (draws)
  double window_read_cost_ = 0.0;  ///< sum over routed reads of distance
  std::uint64_t window_read_count_ = 0;
  double install_mean_read_cost_ = 0.0;

  ServingStats stats_;
};

}  // namespace agtram::srv
