// Request-replay simulator: an independent validation path for the OTC
// cost model and the paper's end-user motivation.
//
// The cost engine (drp::CostModel) computes Equation 4 analytically.  This
// module instead *routes* the workload against a placement the way the
// protocol of Section 2 would:
//
//   * a read from S_i for O_k is served by the nearest replicator NN_ik;
//   * a write is shipped to the primary P_k, which broadcasts the new
//     version to every other replicator.
//
// Every routed transfer is accounted in data-unit-cost terms; the grand
// total provably equals C_overall(X), which tests assert — two independent
// implementations of the paper's cost semantics agreeing is the strongest
// internal check we have.  The simulator additionally reports what the
// analytic model cannot: the distribution of user-perceived read latencies
// ("replicating data objects ... can alleviate access delays", paper §1).
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "drp/placement.hpp"

namespace agtram::sim {

using common::LatencySummary;

/// Per-server service load: how many read requests each server ends up
/// serving (as the nearest replica of the objects it hosts).  The paper's
/// conclusion claims the mechanism places objects near demand "while
/// ensuring that no hosts become overloaded" — these numbers test it.
struct LoadSummary {
  double mean_served = 0.0;   ///< mean reads served per server
  double max_served = 0.0;    ///< hottest server's load
  /// max / mean — 1.0 would be a perfectly even spread.
  double imbalance = 0.0;
  /// Fraction of all reads served by the busiest 5% of servers.
  double top5_share = 0.0;
};

struct ReplayStats {
  // Data-unit-cost totals, by traffic class.
  double read_units = 0.0;        ///< reads -> nearest replica
  double write_ship_units = 0.0;  ///< writer -> primary
  double broadcast_units = 0.0;   ///< primary -> other replicators
  std::uint64_t read_requests = 0;
  std::uint64_t write_requests = 0;

  /// Per-read latency (path cost of the serving hop), request-weighted, as
  /// common::summarize_read_costs reports it.
  LatencySummary read_latency;

  /// Read-service load distribution across servers.
  LoadSummary server_load;

  double total_units() const noexcept {
    return read_units + write_ship_units + broadcast_units;
  }
};

/// Routes the full aggregated workload of `placement.problem()` against
/// `placement`.  Deterministic; O(nnz + total replicas).
ReplayStats replay(const drp::ReplicaPlacement& placement);

}  // namespace agtram::sim
