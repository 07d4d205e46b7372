// Tiled regional AGT-RAM for M = 50k-100k servers.
//
// The shared-placement engine in core/regional.hpp scales the *round
// structure* (R concurrent regional rounds per epoch) but still inherits
// the dense M x M closure through drp::Problem.  This engine removes that
// ceiling: servers are clustered directly on the graph
// (net::cluster_servers_sampled), distances are tiled into per-region
// blocks plus centre strips (net::TiledDistances), and each region runs a
// fully independent AGT-RAM auction — or a cooperative greedy coalition on
// a per-region drp::DeltaEvaluator shard — over its own subproblem:
//
//   * member servers keep their global capacities; objects enter a shard
//     when a member reads/writes them or homes their primary;
//   * a foreign object's primary maps to the *gateway* of its home region
//     (zero free capacity, so gateways never replicate), and the writes of
//     non-member servers aggregate onto that gateway — update broadcasts
//     are priced along the route through the regional centres, total write
//     volume per object matching the global instance exactly;
//   * reads by non-members are excluded: those are the home business of
//     the readers' own regions.
//
// Shards share no mutable state, so Serial and Sharded execution are
// byte-identical by construction; the differential suite in
// tests/regional_test.cpp pins it, and pins the R=1 degenerate case equal
// to the flat mechanism.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/regional.hpp"
#include "drp/builder.hpp"
#include "net/clustering.hpp"
#include "net/tiled_distances.hpp"

namespace agtram::core {

/// How the tiled engine runs its per-region shard solves.  Both orders
/// produce byte-identical results: shards share no mutable state, and their
/// outcomes merge in ascending region id.
enum class RegionalExecution : std::uint8_t {
  Serial,   ///< solve regions one after another (the differential oracle)
  Sharded,  ///< solve all regions concurrently on the thread pool
};

struct TiledRegionalConfig {
  std::uint32_t regions = 8;
  std::uint64_t seed = 1;
  PaymentRule payment_rule = PaymentRule::SecondPrice;
  RegionalExecution execution = RegionalExecution::Serial;
  /// Greedy welfare loop on a per-region DeltaEvaluator shard instead of
  /// the per-region auction (no payments inside a coalition).
  bool cooperative = false;
  /// Budget for the tiled distance state (blocks + strips).  A partition
  /// whose estimate exceeds it is refused — within_budget=false, nothing
  /// materialised — never silently truncated.
  std::uint64_t distance_budget_bytes = 4ull << 30;
  std::uint32_t refine_iterations = 1;
  /// Pool for Sharded execution; nullptr = common::ThreadPool::shared().
  common::ThreadPool* pool = nullptr;
};

/// The reusable expensive part: clustering + tiled distance blocks.  Built
/// once per (instance, R) and shared by timed Serial/Sharded runs.
struct TiledPartition {
  net::Clustering clustering;
  net::TiledDistances tiles;
  bool within_budget = false;
  std::uint64_t tile_bytes = 0;  ///< estimate; exact when within budget
};

TiledPartition make_tiled_partition(const drp::SparseInstance& instance,
                                    const TiledRegionalConfig& config);

struct TiledShardOutcome {
  net::NodeId centre = 0;
  std::uint32_t member_count = 0;
  std::uint32_t object_count = 0;  ///< objects in the shard subproblem
  std::size_t rounds = 0;
  std::size_t replicas_placed = 0;
  double charges = 0.0;
  double initial_cost = 0.0;
  double final_cost = 0.0;
  std::uint64_t reports_computed = 0;
};

struct TiledRegionalResult {
  bool within_budget = false;
  std::uint64_t tile_bytes = 0;
  std::vector<TiledShardOutcome> shards;
  /// Federated OTC: shard subproblem costs summed in region order (objects
  /// read in several regions contribute to each reader region's shard).
  double initial_cost = 0.0;
  double final_cost = 0.0;
  /// Every replica allocated, as global (server, object) pairs, sorted —
  /// the cross-execution identity key.
  std::vector<std::pair<drp::ServerId, drp::ObjectIndex>> allocations;

  std::size_t replicas_placed() const { return allocations.size(); }
  double savings() const {
    return initial_cost > 0.0 ? (initial_cost - final_cost) / initial_cost
                              : 0.0;
  }
};

/// Runs every region's mechanism over a prebuilt partition.  Returns
/// within_budget=false (and does nothing) when the partition was refused.
TiledRegionalResult run_regional_tiled(const drp::SparseInstance& instance,
                                       const TiledPartition& partition,
                                       const TiledRegionalConfig& config);

/// Convenience: partition + run.
TiledRegionalResult run_regional_tiled(const drp::SparseInstance& instance,
                                       const TiledRegionalConfig& config);

}  // namespace agtram::core
