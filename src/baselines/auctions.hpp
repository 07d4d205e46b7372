// Dutch (DA) and English (EA) auction replica allocation (comparison
// baselines; Khan & Ahmad, "Internet Content Replication: A Solution from
// Game Theory", UTA tech report CSE-2004-5).
//
// Both methods share AGT-RAM's round structure — every round auctions off
// one replica slot, agents value objects by the same Eq.-5 benefit — but
// replace the sealed-bid argmax of AGT-RAM with an open-outcry price clock,
// which is where their quality and running time diverge:
//
//  * English (ascending): the price rises from zero in fixed increments;
//    agents drop out when the price passes their valuation; the last
//    bidder standing wins at the hammer price.  The coarse increment
//    quantises valuations, so near-tied agents are separated arbitrarily
//    (the jump-bidding effect) and every round costs O(steps x agents) —
//    EA lands at "low performance", slower than DA.
//
//  * Dutch (descending): the price falls from just above the highest
//    estimate; the first agent to shout "mine" wins at the current price.
//    Rational Dutch bidders shade below their true valuation (first-price
//    equivalence), and heterogeneous shading occasionally lets a
//    second-best agent grab the slot — "medium performance", but fewer
//    clock ticks per round than EA.
#pragma once

#include <cstdint>

#include "drp/placement.hpp"
#include "drp/problem.hpp"

namespace agtram::baselines {

struct EnglishAuctionConfig {
  std::uint64_t seed = 3;
};

struct DutchAuctionConfig {
  std::uint64_t seed = 5;
};

drp::ReplicaPlacement run_english_auction(const drp::Problem& problem,
                                          const EnglishAuctionConfig& config = {});

drp::ReplicaPlacement run_dutch_auction(const drp::Problem& problem,
                                        const DutchAuctionConfig& config = {});

}  // namespace agtram::baselines
