// The serving engine (DESIGN.md §13, ROADMAP item 3): a long-running
// request front-end over the live replica placement.
//
// Per batch it (1) admits and routes every request off the live
// RoutingSnapshot on the shared thread pool — shard-local scratch, no
// serve-path locks — accumulating a dense read-latency histogram (distances
// are bounded by the network diameter, so percentiles are exact); a batch
// holding one request the fold could not apply is refused whole, before
// anything changes;
// (2) merges the shards, folds the batch's per-cell counts into a dense,
// touch-ordered observation window, and feeds a drift trigger that watches
// two aggregated signals: the L1 volume drift of the observed traffic mix
// against the registered demand matrix, and a routing-cost regression
// estimate (observed mean read cost over the expectation computed at the
// last install); (3) on a threshold crossing — or every batch / never, per
// policy — folds the window back into the demand matrix as checked
// AccessMatrix::apply_demand_delta batches, re-converges, and installs a
// snapshot patched from the previous one (only objects whose replicators
// changed are re-filled) without stalling serving.
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

#include "core/agt_ram.hpp"
#include "core/online.hpp"
#include "drp/problem.hpp"
#include "runtime/message_bus.hpp"
#include "srv/routing_table.hpp"
#include "srv/workload.hpp"

namespace agtram::srv {

enum class ReconvergePolicy { Static, EveryBatch, OnDrift };

/// The largest network diameter a ServingEngine serves.  Its read-cost
/// histograms (the stats' and one per routing shard) hold one 8-byte count
/// per distance, so 2^20 distances cap each at 8 MiB; a larger diameter is
/// refused at construction.
inline constexpr net::Cost kMaxReadDistance = (net::Cost{1} << 20) - 1;

struct ServingConfig {
  ReconvergePolicy policy = ReconvergePolicy::OnDrift;
  /// Solver configuration shared by the initial solve and every
  /// re-convergence (all report modes allocate identically).
  core::AgtRamConfig mechanism;
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
  /// Routing shards per batch, fanned out on ThreadPool::shared(); 0 = the
  /// pool's thread count.
  std::size_t shards = 0;
  /// Optional wire accounting: route queries, demand-delta batches, and
  /// placement installs are charged on the bus, which prices each kind.
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
  /// reconverge_seconds by stage.  They sum to at most it; the rest is the
  /// window reset and engine bookkeeping (and the differential oracle, when
  /// on).  Every *_seconds field is the reading of its obs spans (DESIGN.md
  /// §9 names them), and a refused batch adds to none.
  double fold_seconds = 0.0;      ///< window -> demand deltas, applied
  double repair_seconds = 0.0;    ///< dirty-set repair, or the cold re-solve
  double eviction_seconds = 0.0;  ///< the online engine's eviction pass
  /// Building the new RoutingSnapshot: patched from the previous one under
  /// OnDrift, built in full after a cold re-solve.
  double snapshot_seconds = 0.0;
  double install_seconds = 0.0;   ///< publishing it + the trigger baseline
  /// Request-weighted read serving distances, index = path cost (exact
  /// percentiles; size = diameter + 1).
  std::vector<std::uint64_t> read_cost_histogram;
};

/// Which drift-trigger signal fired (None: neither, or the window was below
/// min_window_requests).
enum class DriftSignal { None, CostRegression, VolumeDrift };

/// The inputs and outcome of one drift-trigger evaluation.
struct DriftRecord {
  std::uint64_t batch = 0;  ///< stats().batches when evaluated (0: never)
  std::uint64_t window_requests = 0;  ///< count-weighted reads + writes
  std::uint64_t window_groups = 0;    ///< routed Request entries (draws, n)
  std::size_t touched_cells = 0;      ///< distinct cells observed (K)
  double observed_read_cost = 0.0;  ///< window mean read distance (0: none)
  double expected_read_cost = 0.0;  ///< the expectation at the last install
  /// Sum over touched cells, in first-touch order, of |observed share -
  /// registered share| (0 when the window or the matrix is empty).
  double l1_drift = 0.0;
  double noise_floor = 0.0;  ///< sqrt(2K/(pi*n))
  std::uint64_t min_window_requests = 0;
  double cost_regression_threshold = 0.0;
  double volume_drift_threshold = 0.0;
  DriftSignal fired = DriftSignal::None;
};

class ServingEngine {
 public:
  /// Takes ownership of the instance, runs the initial solve, and installs
  /// the first routing snapshot.  Throws std::invalid_argument, before any
  /// of that, for an invalid instance or one whose network diameter
  /// exceeds kMaxReadDistance.
  ServingEngine(drp::Problem problem, ServingConfig config);

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Routes one request batch, then re-converges per policy.  Throws
  /// std::invalid_argument, with the stats, the window and the bus
  /// unchanged, if any request carries count 0, names an object >= N, a
  /// slot outside its object's accessors, or a read on a cell whose server
  /// is not in the structural readers(object) list (the fold could not
  /// apply it).  The message names the first such request's index and the
  /// reason.
  void run_batch(std::span<const Request> batch);

  /// Folds the current window into the demand matrix and re-converges now,
  /// regardless of the trigger (test hook; also what EveryBatch calls).
  void reconverge_now();

  const ServingStats& stats() const noexcept { return stats_; }
  /// The last drift-trigger evaluation (OnDrift evaluates after every
  /// batch; the other policies never do).
  const DriftRecord& last_drift() const noexcept { return last_drift_; }
  /// The routing table.  Its acquire()d snapshot is valid until the next
  /// run_batch() or reconverge_now(); pin() one to read from another thread.
  const RoutingTable& routing() const noexcept { return table_; }
  const drp::Problem& problem() const;
  const drp::ReplicaPlacement& placement() const;
  /// Non-null only under ReconvergePolicy::OnDrift.
  const core::OnlineMechanism* online() const noexcept {
    return online_.get();
  }

 private:
  /// One routing slice's tallies.  The histogram is its one per-read
  /// tally: merge_shard derives the reads, local reads and read cost.
  struct Shard {
    std::vector<std::uint64_t> hist;  ///< read distance histogram
    std::uint64_t writes = 0;
    double read_units = 0.0;
    double write_units = 0.0;
    /// First refused request of the slice (index into it) and why; the
    /// shard stops routing there.
    std::size_t refused_at = 0;
    const char* refusal = nullptr;

    void reset();
  };

  /// One touched cell of the observation window.
  struct WindowCell {
    std::uint32_t cell;        ///< global cell index, slot scheme
    std::uint64_t registered;  ///< reads + writes registered at first touch
    std::uint64_t reads;
    std::uint64_t writes;
  };
  static constexpr std::uint32_t kUntouched = 0xffffffffu;

  /// Routes, merges and observes one batch (the serve stage).
  void route_batch(std::span<const Request> batch);
  void route_shard(const RoutingSnapshot& snap, std::span<const Request> part,
                   Shard& shard) const;
  void merge_shard(Shard& shard);
  void observe(std::span<const Request> batch);
  bool drift_crossed();
  /// The fold stage: the observation window as demand deltas in
  /// fold_events_, applied to the owned matrix when no online engine will.
  void fold_window();
  /// Publishes a snapshot for the current placement: patched from the
  /// current one when `changed` is given, else built in full.  The install
  /// frees the current one, so the engine holds two only while patching.
  void install_snapshot(std::uint64_t changed_entries,
                        const std::vector<drp::ObjectIndex>* changed);
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
  std::size_t shard_count_ = 1;
  std::vector<Shard> shards_;
  /// Per cell: 1 iff its server is in the structural readers(object) list.
  std::vector<std::uint8_t> reader_cell_;

  // Observation window (reset at each install): the touched cells, dense in
  // first-touch order, and each cell's position among them.  Demand changes
  // only inside reconverge_now, which resets the window, so a cell's
  // registered volume captured at first touch stays current.
  std::vector<std::uint32_t> window_pos_;  ///< per cell; kUntouched if not
  std::vector<WindowCell> window_;
  std::uint64_t window_requests_ = 0;
  std::uint64_t window_groups_ = 0;  ///< routed Request entries (draws)
  std::uint64_t window_read_cost_ = 0;  ///< sum over routed reads of distance
  std::uint64_t window_read_count_ = 0;
  double install_mean_read_cost_ = 0.0;
  DriftRecord last_drift_;
  std::vector<core::OnlineEvent> fold_events_;  ///< reused across folds

  ServingStats stats_;
};

}  // namespace agtram::srv
