#include "baselines/auctions.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/prng.hpp"
#include "core/agt_ram.hpp"

namespace agtram::baselines {

using common::Rng;

namespace {

/// Clock ticks per round: each moves the price by (top estimate / steps).
constexpr std::uint32_t kEnglishPriceSteps = 12;
constexpr std::uint32_t kDutchPriceSteps = 24;
/// Dutch bid-shading band: each agent accepts at price <= shade * valuation
/// with shade drawn uniformly from [kShadeLo, kShadeHi] per agent.
constexpr double kShadeLo = 0.85;
constexpr double kShadeHi = 0.98;

/// Shared auction scaffolding: AGT-RAM's sealed-bid round (the same
/// core::Agent and core::poll_round the mechanism uses), one replica per
/// auction, and a pluggable winner-selection clock over the round's bids.
template <typename PickWinner>
drp::ReplicaPlacement run_auction_rounds(const drp::Problem& problem,
                                         PickWinner&& pick_winner) {
  drp::ReplicaPlacement placement(problem);
  std::vector<core::Agent> agents = core::build_agents(problem);
  std::vector<std::uint32_t> live = core::live_agents(agents);
  core::SealedBids bids;
  while (!live.empty()) {
    core::poll_round(agents, live, placement, {}, nullptr, bids);
    if (bids.empty()) break;
    const std::size_t winner = pick_winner(bids);
    assert(winner < bids.bidders.size());
    placement.add_replica(bids.bidders[winner], bids.reports[winner].object);
  }
  return placement;
}

}  // namespace

drp::ReplicaPlacement run_english_auction(const drp::Problem& problem,
                                          const EnglishAuctionConfig& config) {
  Rng rng(config.seed);

  return run_auction_rounds(problem, [&](const core::SealedBids& bids) {
    // Ascending clock.  All valuations are positive; the increment is a
    // fixed fraction of the top estimate, so close valuations fall in the
    // same final bracket and the hammer falls on a random one of them.
    double top = 0.0;
    for (const core::Report& b : bids.reports) {
      top = std::max(top, b.true_value);
    }
    const double increment = top / static_cast<double>(kEnglishPriceSteps);

    std::vector<std::size_t> active(bids.reports.size());
    for (std::size_t i = 0; i < active.size(); ++i) active[i] = i;
    double price = 0.0;
    while (active.size() > 1) {
      const double next_price = price + increment;
      std::vector<std::size_t> still_in;
      still_in.reserve(active.size());
      for (const std::size_t i : active) {
        if (bids.reports[i].true_value >= next_price) still_in.push_back(i);
      }
      if (still_in.empty()) break;  // everyone quit this tick: tie bracket
      price = next_price;
      active = std::move(still_in);
    }
    return active[rng.below(active.size())];
  });
}

drp::ReplicaPlacement run_dutch_auction(const drp::Problem& problem,
                                        const DutchAuctionConfig& config) {
  Rng rng(config.seed);

  // Per-agent shading factors, fixed for the whole game.
  std::vector<double> shade(problem.server_count());
  for (double& s : shade) s = rng.uniform(kShadeLo, kShadeHi);

  return run_auction_rounds(problem, [&](const core::SealedBids& bids) {
    double top = 0.0;
    for (const core::Report& b : bids.reports) {
      top = std::max(top, b.true_value);
    }
    // Descending clock from just above the best estimate; the first agent
    // whose shaded acceptance threshold meets the price claims the slot.
    double price = top * 1.05;
    const double decrement = price / static_cast<double>(kDutchPriceSteps);
    for (std::uint32_t tick = 0; tick < 2 * kDutchPriceSteps; ++tick) {
      price -= decrement;
      std::vector<std::size_t> takers;
      for (std::size_t i = 0; i < bids.reports.size(); ++i) {
        if (shade[bids.bidders[i]] * bids.reports[i].true_value >= price) {
          takers.push_back(i);
        }
      }
      if (!takers.empty()) {
        return takers[rng.below(takers.size())];
      }
    }
    // Clock ran out (numerical corner): highest valuation wins.
    std::size_t best = 0;
    for (std::size_t i = 1; i < bids.reports.size(); ++i) {
      if (bids.reports[i].true_value > bids.reports[best].true_value) best = i;
    }
    return best;
  });
}

}  // namespace agtram::baselines
