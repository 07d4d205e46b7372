// Serving-side routing table (DESIGN.md §13): the read/write fast path of
// the replica-placement service.
//
// A RoutingSnapshot is an immutable, flat, per-object nearest-replica index
// derived from the live drp::ReplicaPlacement: for every structural demand
// cell (the AccessMatrix slot scheme — accessor_base(k) + slot) it holds the
// serving replica's identity and distance, and for writes a precomputed
// per-cell data-unit cost (ship to primary + version broadcast to the other
// replicators, minus the writer's own incoming copy when it is itself a
// replicator — the exact accounting of sim::replay).  Routing one request is
// two contiguous array loads; nothing on the serve path chases the
// placement's replicator sets or the distance matrix.
//
// RoutingTable publishes snapshots RCU-style through one raw
// std::atomic<const RoutingSnapshot*> and owns only the live snapshot.  The
// lifetime rule, stated here once:
//  * `acquire()` is a single acquire load.  Its pointer is valid until the
//    next `install()`: enough for the thread that installs, which reads
//    between its own installs.  ServingEngine's control thread acquires once
//    per batch, and its routing shards join before re-convergence installs,
//    so the engine holds no pin of its own.
//  * A thread that reads while another thread installs takes `pin()`, an
//    owning handle copied under the install lock.  The snapshot it pins
//    stays valid until that handle drops, whatever installs land meanwhile.
//  * `install()` drops the table's reference to the snapshot it replaces.
//    That snapshot is freed at once or, if pinned, when its last pin drops.
//    So the table keeps one snapshot alive, and an engine that patches the
//    next snapshot from the live one holds at most two, plus any pinned
//    (tests/serving_test.cpp soaks this bound and hammers pin-vs-install
//    under TSan).
//
// std::atomic<std::shared_ptr> is deliberately not used here: libstdc++'s
// _Sp_atomic releases its internal bit-lock with a relaxed RMW on the load
// path, so the reader's read of the pointer field is not formally ordered
// against the next installer's write — TSan (correctly, per the memory
// model) reports that as a race.  A raw pointer for the fast path and a
// mutex-guarded owner for pins is both cleanly ordered and cheaper.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "drp/placement.hpp"
#include "drp/problem.hpp"
#include "net/shortest_paths.hpp"

namespace agtram::srv {

/// Where a read was routed: the serving replica and the path cost of the
/// serving hop (0 when the reader holds a replica itself).
struct RouteDecision {
  drp::ServerId server;
  net::Cost distance;
};

class RoutingSnapshot {
 public:
  /// Copies the placement's flat NN caches and precomputes the per-cell
  /// write cost.  O(nnz + total replicas); the snapshot holds no reference
  /// to the placement afterwards (it may mutate freely), only to the
  /// Problem, whose structural support is immutable (fixed-universe model,
  /// DESIGN.md §12) — demand *values* may drift, routing never reads them.
  RoutingSnapshot(const drp::ReplicaPlacement& placement, std::uint64_t epoch);

  /// Patches `previous` forward to `placement`: copies its three arrays and
  /// re-fills only the `changed` objects, so the cost is one copy plus the
  /// changed rows.  Equal, byte for byte, to the full build above when
  /// `changed` lists every object whose replicator set mutated since
  /// `previous` was built from a placement of the same Problem (as
  /// core::BatchOutcome::changed_objects does).  Routing reads no demand, so
  /// nothing else can move a row.
  RoutingSnapshot(const RoutingSnapshot& previous,
                  const drp::ReplicaPlacement& placement,
                  std::span<const drp::ObjectIndex> changed,
                  std::uint64_t epoch);

  const drp::Problem& problem() const noexcept { return *problem_; }
  std::uint64_t epoch() const noexcept { return epoch_; }
  std::size_t replica_count() const noexcept { return replica_count_; }

  /// Routes a read issued from accessor slot `slot` of object k.
  RouteDecision route_read(drp::ObjectIndex k, std::uint32_t slot) const {
    const std::size_t idx = problem_->access.accessor_base(k) + slot;
    return {nn_node_[idx], nn_dist_[idx]};
  }

  /// Data units moved by one read from that cell: o_k x serving distance.
  double read_units(drp::ObjectIndex k, std::uint32_t slot) const {
    const std::size_t idx = problem_->access.accessor_base(k) + slot;
    return static_cast<double>(problem_->object_units[k]) *
           static_cast<double>(nn_dist_[idx]);
  }

  /// Data units moved by one write from that cell: ship to the primary plus
  /// the primary's version broadcast to every other replicator, excluding
  /// the writer's own incoming copy when it replicates k (sim::replay's
  /// accounting).  Precomputed at build time, one load at serve time.
  double write_units(drp::ObjectIndex k, std::uint32_t slot) const {
    return write_units_[problem_->access.accessor_base(k) + slot];
  }

  /// Object k's serving distances / replica identities, parallel to
  /// access.accessors(k) — the oracle tests compare these rows wholesale.
  std::span<const net::Cost> nn_row(drp::ObjectIndex k) const {
    const std::size_t base = problem_->access.accessor_base(k);
    return {nn_dist_.data() + base,
            problem_->access.accessor_base(k + 1) - base};
  }
  std::span<const drp::ServerId> nn_node_row(drp::ObjectIndex k) const {
    const std::size_t base = problem_->access.accessor_base(k);
    return {nn_node_.data() + base,
            problem_->access.accessor_base(k + 1) - base};
  }

 private:
  /// Writes object k's rows from the placement: NN distance and node, and
  /// the write units.
  void fill(const drp::ReplicaPlacement& placement, drp::ObjectIndex k);

  const drp::Problem* problem_;
  std::uint64_t epoch_;
  std::size_t replica_count_;
  std::vector<net::Cost> nn_dist_;      ///< per cell, slot scheme
  std::vector<drp::ServerId> nn_node_;  ///< per cell, slot scheme
  std::vector<double> write_units_;     ///< per cell, slot scheme
};

/// Epoch-published routing state that owns only the live snapshot.
/// acquire() is one atomic load; pin() and install() take the install lock.
/// The per-request route itself never touches either (workers share one
/// acquired snapshot per batch), so serving throughput is independent of
/// install frequency.
class RoutingTable {
 public:
  /// Empty table: acquire() returns null until the first install().
  RoutingTable() = default;
  explicit RoutingTable(std::shared_ptr<const RoutingSnapshot> initial);

  /// The live snapshot (one atomic load), valid until the next install().
  const RoutingSnapshot* acquire() const {
    return current_.load(std::memory_order_acquire);
  }

  /// The live snapshot as an owning handle: valid until the handle drops,
  /// across any number of installs.  For readers on other threads.
  std::shared_ptr<const RoutingSnapshot> pin() const;

  /// Publishes a new snapshot without stalling readers: pinned readers keep
  /// their epoch, subsequent acquires see the new one.  Drops the table's
  /// reference to the replaced snapshot (freed unless pinned).
  void install(std::shared_ptr<const RoutingSnapshot> next);

  /// Snapshots installed so far, including the initial one.
  std::uint64_t installs() const noexcept {
    return installs_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<const RoutingSnapshot*> current_{nullptr};
  std::atomic<std::uint64_t> installs_{0};
  /// Owns the snapshot current_ points at.  Guarded by install_mu_, under
  /// which install() changes both together.
  mutable std::mutex install_mu_;
  std::shared_ptr<const RoutingSnapshot> live_;
};

}  // namespace agtram::srv
