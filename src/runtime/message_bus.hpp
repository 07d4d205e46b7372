// Message accounting for the semi-distributed deployment model.
//
// The paper's central claim about control structure: "all the heavy
// processing is done on the servers of the distributed system and the
// central body is only required to take a binary decision".  This bus
// observes a mechanism run and accounts every message the protocol of
// Figure 2 would put on the wire:
//
//   round r:  each *dirty* agent --(report: object id + valuation)--> centre
//             centre             --(allocation + payment)-->          winner
//             centre             --(broadcast: OMAX)-->               dirty set
//
// plus a latency model mapping the metric closure to per-message delay, so
// benches can report simulated convergence time and the centre-vs-agents
// traffic split that substantiates the scalability argument.
//
// Under the incremental protocol (core::ReportMode::Incremental) the
// centre caches standing reports, so only agents whose valuation the last
// allocation could have changed re-report, and the OMAX broadcast is a
// targeted multicast to that same dirty set — the bus counts exactly those
// wire messages (cached reports never travel).  Under the naive sweep every
// live agent reports and hears the broadcast every round, reproducing the
// paper's literal Figure 2 traffic.
#pragma once

#include <cstdint>

#include "core/agt_ram.hpp"
#include "drp/problem.hpp"

namespace agtram::runtime {

struct MessageStats {
  std::uint64_t report_messages = 0;     ///< agent -> centre
  std::uint64_t report_bytes = 0;
  std::uint64_t allocation_messages = 0; ///< centre -> winner (incl. payment)
  std::uint64_t allocation_bytes = 0;
  std::uint64_t broadcast_messages = 0;  ///< centre -> every live agent
  std::uint64_t broadcast_bytes = 0;
  std::size_t rounds = 0;

  // Serving-plane traffic (srv::ServingEngine, DESIGN.md §13), accounted
  // separately from the protocol kinds above so obs blocks can split
  // mechanism bytes from serving bytes.
  std::uint64_t route_messages = 0;    ///< client -> serving replica reads
  std::uint64_t route_bytes = 0;
  std::uint64_t delta_messages = 0;    ///< demand-delta batch cells -> centre
  std::uint64_t delta_bytes = 0;
  std::uint64_t install_messages = 0;  ///< placement-install table entries
  std::uint64_t install_bytes = 0;

  // Glauber-dynamics baseline traffic (baselines::glauber): per-server flip
  // proposals carrying the locally priced cost delta, and the coordinator's
  // accept/reject decisions back.  Accounted separately so obs blocks can
  // attribute the distributed baseline's chatter.
  std::uint64_t glauber_proposal_messages = 0;  ///< server -> coordinator
  std::uint64_t glauber_proposal_bytes = 0;
  std::uint64_t glauber_decision_messages = 0;  ///< coordinator -> server
  std::uint64_t glauber_decision_bytes = 0;

  /// Simulated end-to-end protocol time: per round, the slowest report in
  /// flight plus the slowest broadcast leg (reports travel in parallel).
  double simulated_seconds = 0.0;

  std::uint64_t total_messages() const noexcept {
    return report_messages + allocation_messages + broadcast_messages;
  }
  std::uint64_t total_bytes() const noexcept {
    return report_bytes + allocation_bytes + broadcast_bytes;
  }
  std::uint64_t serving_messages() const noexcept {
    return route_messages + delta_messages + install_messages;
  }
  std::uint64_t serving_bytes() const noexcept {
    return route_bytes + delta_bytes + install_bytes;
  }
  std::uint64_t glauber_messages() const noexcept {
    return glauber_proposal_messages + glauber_decision_messages;
  }
  std::uint64_t glauber_bytes() const noexcept {
    return glauber_proposal_bytes + glauber_decision_bytes;
  }
};

/// Wire-format sizes (bytes) for the protocol and serving message kinds.
struct WireFormat {
  std::uint32_t report = core::kReportWireBytes;
  std::uint32_t allocation = core::kAllocationWireBytes;
  std::uint32_t broadcast = core::kBroadcastWireBytes;
  std::uint32_t route = 8;        ///< object id + requested version floor
  std::uint32_t delta_cell = 24;  ///< server + object + dr + dw
  std::uint32_t install_entry = 8;  ///< object id + replica server id
  std::uint32_t glauber_proposal = 24;  ///< object + flip kind + priced delta
  std::uint32_t glauber_decision = 12;  ///< object + accept flag + sweep
};

class MessageBus : public core::MechanismObserver {
 public:
  /// `centre` is the server hosting the central decision body;
  /// `seconds_per_cost_unit` converts metric-closure cost into latency.
  MessageBus(const drp::Problem& problem, drp::ServerId centre,
             double seconds_per_cost_unit = 1e-4, WireFormat wire = {});

  void on_round_begin(std::size_t round) override;
  void on_report(drp::ServerId agent, const core::Report& report,
                 bool fresh) override;
  void on_allocation(drp::ServerId winner, drp::ObjectIndex object,
                     double payment) override;
  void on_broadcast(drp::ServerId winner, drp::ObjectIndex object,
                    std::size_t notified) override;

  // Serving-plane accounting (not MechanismObserver callbacks): the
  // ServingEngine charges its own wire kinds here from the control thread.
  void account_routes(std::uint64_t requests);
  void account_demand_batch(std::uint64_t cells);
  void account_install(std::uint64_t entries);

  // Glauber-baseline accounting (baselines::glauber): one proposal per
  // evaluated flip, one decision back per proposal.
  void account_glauber_proposals(std::uint64_t proposals);
  void account_glauber_decisions(std::uint64_t decisions);

  const MessageStats& stats() const noexcept { return stats_; }
  drp::ServerId centre() const noexcept { return centre_; }

  /// Medoid of the metric closure: the natural place for the central body.
  static drp::ServerId pick_centre(const drp::Problem& problem);

 private:
  double latency(drp::ServerId server) const;

  const drp::Problem* problem_;
  drp::ServerId centre_;
  double seconds_per_cost_unit_;
  WireFormat wire_;
  MessageStats stats_;
  double round_slowest_report_ = 0.0;
};

}  // namespace agtram::runtime
