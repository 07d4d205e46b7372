// The semi-distributed deployment model: message accounting and timing of
// the Figure 2 protocol.
//
// The paper's central claim about control structure: "all the heavy
// processing is done on the servers of the distributed system and the
// central body is only required to take a binary decision".  This bus
// observes the rounds a mechanism actually runs (it is a
// core::MechanismObserver) and accounts and times every message the
// protocol of Figure 2 puts on the wire:
//
//   round r:
//     centre   --(poll)-->                      each agent it re-polls
//     agent i  computes its report                               [compute]
//     agent i  --(report: object id + valuation)-->  centre
//     centre   waits for the reports (a barrier), decides         [decide]
//     centre   --(allocation + payment)-->      winner
//     centre   --(broadcast: OMAX)-->           the notified agents
//
// Each message takes a distance-proportional latency plus a fixed overhead;
// an agent's compute time scales with the candidate evaluations its report
// cost (Report::evaluations), and the decide scan with the bids the centre
// received.  Stragglers inflate compute steps, and lost messages are
// retransmitted after a timeout (ProtocolModel).  A round closes when its
// slowest leg lands: the slowest poll→compute→reply chain, the decide scan,
// then the slowest allocation or broadcast message.  The terminating round,
// in which no agent bids, still costs its barrier.  This stands in for the
// paper's Ada/GLADE deployment; MessageStats::simulated_seconds is the
// protocol's makespan, split along its critical path.
//
// Under the incremental protocol (core::ReportMode::Incremental) the centre
// caches standing reports, so it polls only the agents whose valuation the
// last allocation could have changed, and the OMAX broadcast is a targeted
// multicast to that same dirty set; the bus charges exactly those messages
// (cached reports never travel).  Under the naive sweep every live agent is
// polled every round and the bidders that stay in LS hear the broadcast:
// the paper's literal Figure 2 traffic.
//
// A regional run (core::run_regional with RegionalConfig::observer set)
// has one centre per region: each agent talks to its region's medoid, the
// regions run their rounds concurrently, and an epoch closes on its
// slowest centre.
//
// The bus is the one place that turns messages into bytes.  Each kind's
// modelled wire size is defined once, below; the engines count messages
// (reports polled, replicas placed, epochs) and leave the pricing here.
// The serving plane (srv::ServingEngine) charges its own three kinds
// through the account_* methods.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/prng.hpp"
#include "core/agt_ram.hpp"
#include "drp/problem.hpp"
#include "net/clustering.hpp"

namespace agtram::runtime {

// Modelled wire sizes (bytes), one per message kind.
/// Report: object id + fixed-point valuation.
inline constexpr std::uint32_t kReportWireBytes = 16;
/// Empty report ("nothing for me").
inline constexpr std::uint32_t kEmptyReportWireBytes = 4;
/// Allocation: object id + payment.
inline constexpr std::uint32_t kAllocationWireBytes = 16;
/// OMAX broadcast: object id + winner id.
inline constexpr std::uint32_t kBroadcastWireBytes = 12;
/// Route query: object id + requested version floor.
inline constexpr std::uint32_t kRouteWireBytes = 8;
/// Demand-delta cell: server + object + dr + dw.
inline constexpr std::uint32_t kDeltaCellWireBytes = 24;
/// Placement-install entry: object id + replica server id.
inline constexpr std::uint32_t kInstallEntryWireBytes = 8;

/// The protocol's network faults.  The legs' timing is fixed: 1e-4 s per
/// cost unit of distance plus 2e-4 s per message, 5e-7 s per candidate
/// evaluation inside an agent and 1e-7 s per bid the centre scans.
struct ProtocolModel {
  /// Each fresh report's compute step is inflated by a factor drawn
  /// uniformly from [1, 1 + straggler_factor].
  double straggler_factor = 0.0;
  /// Probability that any message is lost; lost messages are retransmitted
  /// after 0.05 s.
  double loss_probability = 0.0;

  /// Seeds the straggler and loss draws.
  std::uint64_t seed = 1;
};

struct MessageStats {
  /// agent -> centre, each answering one centre -> agent poll
  std::uint64_t report_messages = 0;
  std::uint64_t report_bytes = 0;
  std::uint64_t allocation_messages = 0; ///< centre -> winner (incl. payment)
  std::uint64_t allocation_bytes = 0;
  std::uint64_t broadcast_messages = 0;  ///< centre -> each notified agent
  std::uint64_t broadcast_bytes = 0;
  /// Protocol messages lost in flight; each was sent again after the
  /// model's retransmit timeout.
  std::uint64_t lost_messages = 0;
  std::size_t rounds = 0;

  /// Simulated end-to-end protocol time (the makespan): the sum over rounds
  /// of each round's slowest centre.  Its critical path splits into time in
  /// flight, agent compute and the centre's decide scans.
  double simulated_seconds = 0.0;
  double network_seconds = 0.0;
  double compute_seconds = 0.0;
  double centre_seconds = 0.0;

  // Serving-plane traffic (srv::ServingEngine, DESIGN.md §13), accounted
  // separately from the protocol kinds above so obs blocks can split
  // mechanism bytes from serving bytes.
  std::uint64_t route_messages = 0;    ///< client -> serving replica reads
  std::uint64_t route_bytes = 0;
  std::uint64_t delta_messages = 0;    ///< demand-delta batch cells -> centre
  std::uint64_t delta_bytes = 0;
  std::uint64_t install_messages = 0;  ///< placement-install table entries
  std::uint64_t install_bytes = 0;

  /// Every protocol message put on the wire: polls and reports,
  /// allocations, broadcasts and retransmissions.
  std::uint64_t total_messages() const noexcept {
    return 2 * report_messages + allocation_messages + broadcast_messages +
           lost_messages;
  }
  /// Protocol payload bytes (polls carry none; retransmissions not counted).
  std::uint64_t total_bytes() const noexcept {
    return report_bytes + allocation_bytes + broadcast_bytes;
  }
  std::uint64_t serving_bytes() const noexcept {
    return route_bytes + delta_bytes + install_bytes;
  }
};

class MessageBus : public core::MechanismObserver {
 public:
  /// A flat run: `centre` hosts the one central decision body.
  MessageBus(const drp::Problem& problem, drp::ServerId centre,
             ProtocolModel model = {});
  /// A regional run: server i talks to the medoid of its region,
  /// `clustering.medoids[clustering.assignment[i]]`.  Pass the clustering
  /// the engine runs on (core::cluster_regions with the same config).
  MessageBus(const drp::Problem& problem, const net::Clustering& clustering,
             ProtocolModel model = {});

  void on_round_begin(std::size_t round) override;
  void on_report(drp::ServerId agent, const core::Report& report,
                 bool fresh) override;
  void on_allocation(drp::ServerId winner, drp::ObjectIndex object,
                     double payment) override;
  void on_broadcast(drp::ServerId winner, drp::ObjectIndex object,
                    std::span<const drp::ServerId> notified) override;

  // Serving-plane accounting (not MechanismObserver callbacks): the
  // ServingEngine charges its own wire kinds here from the control thread.
  void account_routes(std::uint64_t requests);
  void account_demand_batch(std::uint64_t cells);
  void account_install(std::uint64_t entries);

  const MessageStats& stats() const noexcept { return stats_; }
  /// The decision bodies, by region (one for a flat run).
  const std::vector<drp::ServerId>& centres() const noexcept {
    return centres_;
  }

  /// Medoid of the metric closure: the natural place for the central body.
  static drp::ServerId pick_centre(const drp::Problem& problem);

 private:
  /// A stretch of protocol time and its critical-path split.
  struct Span {
    double total = 0.0;
    double network = 0.0;
    double compute = 0.0;
    double centre = 0.0;
  };
  /// One centre's open round.
  struct CentreRound {
    double chain = 0.0;  ///< slowest poll→compute→reply chain
    double chain_network = 0.0;
    double chain_compute = 0.0;
    std::uint64_t bids = 0;  ///< fresh reports carrying a candidate
    double fanout = 0.0;     ///< slowest allocation or broadcast leg
  };

  std::uint32_t region_of(drp::ServerId server) const {
    return region_of_.empty() ? 0 : region_of_[server];
  }
  /// One message's delivery time: latency plus a timeout per loss.
  double send(drp::ServerId from, drp::ServerId to);
  /// Folds `region`'s round so far into the open round's slowest centre
  /// and publishes the makespan in stats_.
  void time_round(std::uint32_t region);

  const drp::Problem* problem_;
  std::vector<drp::ServerId> centres_;   ///< by region
  std::vector<std::uint32_t> region_of_; ///< by server; empty: one centre
  ProtocolModel model_;
  common::Rng rng_;
  std::vector<CentreRound> round_;  ///< by region
  std::uint32_t slowest_ = 0;       ///< the open round's slowest region
  Span closed_;                     ///< the rounds before the open one
  Span open_;                       ///< the open round's slowest centre
  MessageStats stats_;
};

}  // namespace agtram::runtime
