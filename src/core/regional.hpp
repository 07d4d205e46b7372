// Regional (hierarchical) AGT-RAM — the paper's future-work extension
// (Section 7): "the current system model would be broadened to incorporate
// regional or hierarchical mechanisms.  This would enable the system to be
// less vulnerable to the failures of a single mechanism."
//
// Servers are partitioned into latency-coherent regions (k-medoids over the
// metric closure); each region runs its own AGT-RAM round concurrently,
// with its medoid hosting the regional decision body.  The global scheme
// is shared — regional broadcasts keep the NN tables coherent — so the
// placement converges to the same no-positive-candidate fixed point as the
// flat mechanism, while:
//
//   * each epoch performs up to R allocations instead of 1 (R-fold fewer
//     coordination round-trips),
//   * each regional centre handles only its members' reports,
//   * a failed region stalls only its own members' allocations (graceful
//     degradation instead of a dead system).
#pragma once

#include <cstdint>
#include <vector>

#include "core/agt_ram.hpp"
#include "net/clustering.hpp"

namespace agtram::core {

struct RegionalConfig {
  std::uint32_t regions = 4;
  PaymentRule payment_rule = PaymentRule::SecondPrice;
  /// Region indices whose mechanism is down (failure injection); their
  /// agents never allocate.  An index at or above the region count is
  /// refused with std::invalid_argument.
  std::vector<std::uint32_t> failed_regions;
  /// Clustering seed (medoid initialisation).
  std::uint64_t seed = 1;
  /// Safety valve; 0 = run to quiescence.
  std::size_t max_epochs = 0;
  /// Optional instrumentation of run_regional (runtime::MessageBus times
  /// its epochs): on_round_begin once per epoch, on_report for every live
  /// region's fresh reports, then on_allocation and on_broadcast (to the
  /// region's remaining live members) for each committed winner.  The
  /// cooperative and hierarchical engines would never call it, so they
  /// refuse one with std::invalid_argument.
  MechanismObserver* observer = nullptr;
};

/// The k-medoids clustering the regional engines partition the servers
/// with: `config.regions` regions, medoids seeded by `config.seed`.
net::Clustering cluster_regions(const drp::Problem& problem,
                                const RegionalConfig& config);

struct RegionOutcome {
  net::NodeId centre = 0;          ///< the region's medoid / decision body
  std::uint32_t member_count = 0;
  bool failed = false;
  std::size_t replicas_placed = 0;
  double charges = 0.0;            ///< second-price clearing volume
};

struct RegionalResult {
  drp::ReplicaPlacement placement;
  net::Clustering clustering;
  std::vector<RegionOutcome> regions;
  std::size_t epochs = 0;

  std::size_t replicas_placed() const;
};

/// The non-cooperative regional game.  Both dense engines run one epoch
/// loop: each epoch every live region picks at most one move against the
/// epoch-start placement, and the picks commit in ascending region id,
/// until an epoch picks nothing or `max_epochs` epochs ran.  Here a region's
/// pick is a sealed-bid round (core::poll_round) over its live members,
/// cleared under `payment_rule`.
RegionalResult run_regional(const drp::Problem& problem,
                            const RegionalConfig& config = {});
/// Like every placement-returning entry point, these keep a pointer to the
/// Problem: a temporary one is refused.
RegionalResult run_regional(drp::Problem&&,
                            const RegionalConfig& = {}) = delete;

/// The cooperative variant of the hierarchical game ("in each level either
/// a cooperative or non-cooperative game could be played", Section 7):
/// within a region the members pool their information and jointly pick the
/// move that maximises the *region's* welfare — the summed cost reduction
/// of its members — while regions still act selfishly towards each other.
/// Replicas may land on any member (including pure hub members that read
/// nothing themselves), which is exactly what the non-cooperative game
/// cannot do; no payments are needed inside a coalition, so charges are 0.
/// It runs run_regional's epoch loop; a region's pick is the top of its
/// lazy greedy over objects (drp::LazyGreedyHeap).
RegionalResult run_regional_cooperative(const drp::Problem& problem,
                                        const RegionalConfig& config = {});
RegionalResult run_regional_cooperative(drp::Problem&&,
                                        const RegionalConfig& = {}) = delete;

/// Two-level hierarchical mechanism: each round every live region holds a
/// regional round to nominate its *champion* report, and the top-level
/// centre picks the global argmax among the R champions — one replica per
/// round, exactly like the flat mechanism, but the top centre compares R
/// scalars instead of M (the regional centres absorb the fan-in).
///
/// The argmax of regional argmaxes is the global argmax (ties break towards
/// the lowest server id at both levels), so the rounds are those of the
/// flat mechanism over the members of live regions, and that is how it
/// runs: run_agt_ram_from drives them on the dirty-set path, and an
/// observer plays the regional centres and the top centre from every live
/// member's standing report.  Payments clear at the top level against the
/// second-best champion, which is never more than the flat second price
/// (the flat runner-up may hide inside the winner's own region), so the
/// hierarchy is weakly cheaper for the winners.  `max_epochs` caps the
/// rounds; an `observer` is refused (the top centre is the run's observer).
struct HierarchicalResult {
  drp::ReplicaPlacement placement;
  net::Clustering clustering;
  std::vector<RoundRecord> rounds;
  double total_charges = 0.0;
  /// Scalars the top-level centre compared over the whole run (<= R per
  /// round; the flat mechanism's centre compares up to M per round).
  std::uint64_t top_level_reports = 0;
};

HierarchicalResult run_hierarchical(const drp::Problem& problem,
                                    const RegionalConfig& config = {});
HierarchicalResult run_hierarchical(drp::Problem&&,
                                    const RegionalConfig& = {}) = delete;

}  // namespace agtram::core
