#include "runtime/message_bus.hpp"

#include <algorithm>
#include <limits>

#include "obs/obs.hpp"

namespace agtram::runtime {

namespace {

/// Seconds before a lost protocol message is sent again.
constexpr double kRetransmitTimeout = 0.05;

}  // namespace

MessageBus::MessageBus(const drp::Problem& problem, drp::ServerId centre,
                       ProtocolModel model)
    : problem_(&problem),
      centres_{centre},
      model_(model),
      rng_(model.seed),
      round_(1) {}

MessageBus::MessageBus(const drp::Problem& problem,
                       const net::Clustering& clustering, ProtocolModel model)
    : problem_(&problem),
      centres_(clustering.medoids),
      region_of_(clustering.assignment),
      model_(model),
      rng_(model.seed),
      round_(clustering.region_count()) {}

double MessageBus::send(drp::ServerId from, drp::ServerId to) {
  double delay = static_cast<double>(problem_->distance(from, to)) *
                     model_.seconds_per_cost_unit +
                 model_.message_overhead;
  while (model_.loss_probability > 0.0 &&
         rng_.chance(model_.loss_probability)) {
    ++stats_.lost_messages;
    AGTRAM_OBS_COUNT("bus.lost_msgs", 1);
    delay += kRetransmitTimeout;
  }
  return delay;
}

void MessageBus::time_round(std::uint32_t region) {
  // A centre's round time only grows as its legs land, so the slowest
  // centre so far is the round's barrier if the round ended now.
  const CentreRound& c = round_[region];
  const double decide = static_cast<double>(c.bids) *
                        model_.seconds_per_report_at_centre;
  const double total = c.chain + decide + c.fanout;
  if (region == slowest_ || total > open_.total) {
    slowest_ = region;
    open_ = Span{total, c.chain_network + c.fanout, c.chain_compute, decide};
  }
  stats_.simulated_seconds = closed_.total + open_.total;
  stats_.network_seconds = closed_.network + open_.network;
  stats_.compute_seconds = closed_.compute + open_.compute;
  stats_.centre_seconds = closed_.centre + open_.centre;
}

void MessageBus::on_round_begin(std::size_t) {
  ++stats_.rounds;
  AGTRAM_OBS_COUNT("bus.rounds", 1);
  // The previous round is over: its slowest centre joins the makespan.
  closed_.total += open_.total;
  closed_.network += open_.network;
  closed_.compute += open_.compute;
  closed_.centre += open_.centre;
  open_ = Span{};
  slowest_ = 0;
  std::fill(round_.begin(), round_.end(), CentreRound{});
}

void MessageBus::on_report(drp::ServerId agent, const core::Report& report,
                           bool fresh) {
  // Cached standing reports live at the centre; only fresh ones travel.
  if (!fresh) return;
  const std::uint32_t region = region_of(agent);
  const drp::ServerId centre = centres_[region];
  const double poll = send(centre, agent);
  double compute = static_cast<double>(report.evaluations) *
                   model_.seconds_per_evaluation;
  if (model_.straggler_factor > 0.0) {
    compute *= 1.0 + rng_.uniform() * model_.straggler_factor;
  }
  const double reply = send(agent, centre);

  // Even an empty report is a protocol message ("nothing for me") so the
  // centre can retire the agent from LS.
  const std::uint32_t bytes =
      report.has_candidate ? kReportWireBytes : kEmptyReportWireBytes;
  ++stats_.report_messages;
  stats_.report_bytes += bytes;
  AGTRAM_OBS_COUNT("bus.report_msgs", 1);
  AGTRAM_OBS_COUNT("bus.report_bytes", bytes);

  // Agents are polled concurrently; the barrier waits for the slowest chain.
  CentreRound& round = round_[region];
  const double chain = poll + compute + reply;
  if (chain > round.chain) {
    round.chain = chain;
    round.chain_network = poll + reply;
    round.chain_compute = compute;
  }
  if (report.has_candidate) ++round.bids;
  time_round(region);
}

void MessageBus::on_allocation(drp::ServerId winner, drp::ObjectIndex,
                               double) {
  ++stats_.allocation_messages;
  stats_.allocation_bytes += kAllocationWireBytes;
  AGTRAM_OBS_COUNT("bus.alloc_msgs", 1);
  AGTRAM_OBS_COUNT("bus.alloc_bytes", kAllocationWireBytes);
  const std::uint32_t region = region_of(winner);
  CentreRound& round = round_[region];
  round.fanout = std::max(round.fanout, send(centres_[region], winner));
  time_round(region);
}

void MessageBus::on_broadcast(drp::ServerId winner, drp::ObjectIndex,
                              std::span<const drp::ServerId> notified) {
  const std::uint64_t bytes =
      std::uint64_t{kBroadcastWireBytes} * notified.size();
  stats_.broadcast_messages += notified.size();
  stats_.broadcast_bytes += bytes;
  AGTRAM_OBS_COUNT("bus.broadcast_msgs", notified.size());
  AGTRAM_OBS_COUNT("bus.broadcast_bytes", bytes);
  // The allocation and the broadcast fan out concurrently; the round closes
  // when the slowest message lands.
  const std::uint32_t region = region_of(winner);
  CentreRound& round = round_[region];
  for (const drp::ServerId agent : notified) {
    round.fanout = std::max(round.fanout, send(centres_[region], agent));
  }
  time_round(region);
}

void MessageBus::account_routes(std::uint64_t requests) {
  const std::uint64_t bytes = std::uint64_t{kRouteWireBytes} * requests;
  stats_.route_messages += requests;
  stats_.route_bytes += bytes;
  AGTRAM_OBS_COUNT("bus.route_msgs", requests);
  AGTRAM_OBS_COUNT("bus.route_bytes", bytes);
}

void MessageBus::account_demand_batch(std::uint64_t cells) {
  const std::uint64_t bytes = std::uint64_t{kDeltaCellWireBytes} * cells;
  stats_.delta_messages += cells;
  stats_.delta_bytes += bytes;
  AGTRAM_OBS_COUNT("bus.delta_msgs", cells);
  AGTRAM_OBS_COUNT("bus.delta_bytes", bytes);
}

void MessageBus::account_install(std::uint64_t entries) {
  const std::uint64_t bytes = std::uint64_t{kInstallEntryWireBytes} * entries;
  stats_.install_messages += entries;
  stats_.install_bytes += bytes;
  AGTRAM_OBS_COUNT("bus.install_msgs", entries);
  AGTRAM_OBS_COUNT("bus.install_bytes", bytes);
}

drp::ServerId MessageBus::pick_centre(const drp::Problem& problem) {
  const std::size_t m = problem.server_count();
  drp::ServerId best = 0;
  double best_total = std::numeric_limits<double>::max();
  for (drp::ServerId candidate = 0; candidate < m; ++candidate) {
    double total = 0.0;
    for (drp::ServerId other = 0; other < m; ++other) {
      total += static_cast<double>(problem.distance(candidate, other));
    }
    if (total < best_total) {
      best_total = total;
      best = candidate;
    }
  }
  return best;
}

}  // namespace agtram::runtime
