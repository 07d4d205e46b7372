// Tests for the semi-distributed runtime: message accounting, centre
// selection, serial/distributed allocation equivalence, and the bus's
// timing of the Figure 2 protocol over flat and regional runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/agt_ram.hpp"
#include "core/regional.hpp"
#include "drp/cost_model.hpp"
#include "runtime/distributed_mechanism.hpp"
#include "runtime/message_bus.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;
using namespace agtram::runtime;

TEST(MessageBusTest, PickCentreIsMetricMedoid) {
  // line3 distances: S1 minimises the distance sum (1 + 2 = 3).
  const drp::Problem p = testutil::line3_problem();
  EXPECT_EQ(MessageBus::pick_centre(p), 1u);
}

TEST(MessageBusTest, CountsProtocolTraffic) {
  const drp::Problem p = testutil::line3_problem();
  MessageBus bus(p, MessageBus::pick_centre(p));
  core::AgtRamConfig cfg;
  cfg.observer = &bus;
  const auto result = core::run_agt_ram(p, cfg);

  const MessageStats& stats = bus.stats();
  // The protocol runs one extra terminating round in which every remaining
  // agent reports "nothing for me" and no allocation happens.
  EXPECT_GE(stats.rounds, result.rounds.size());
  EXPECT_LE(stats.rounds, result.rounds.size() + 1);
  EXPECT_EQ(stats.allocation_messages, result.rounds.size());
  // Every live agent reports every round; at least one report per round.
  EXPECT_GE(stats.report_messages, stats.rounds);
  // Broadcast fan-out reaches each live agent of the round.
  EXPECT_GE(stats.broadcast_messages, stats.rounds);
  EXPECT_GT(stats.total_bytes(), 0u);
  EXPECT_GT(stats.simulated_seconds, 0.0);
  // Each report answers one poll; the default model loses nothing.
  EXPECT_EQ(stats.lost_messages, 0u);
  EXPECT_EQ(stats.total_messages(),
            2 * stats.report_messages + stats.allocation_messages +
                stats.broadcast_messages);
}

TEST(MessageBusTest, ChargesFreshReportsAndTheirFanOut) {
  // Naive polls every live agent and tells the bidders that stay in LS;
  // Incremental polls and tells only the dirty set.  Either way the bus
  // charges one report per report the mechanism computed.
  const drp::Problem p = testutil::small_instance(125, 24, 96);
  for (const core::ReportMode mode :
       {core::ReportMode::Naive, core::ReportMode::Incremental}) {
    MessageBus bus(p, MessageBus::pick_centre(p));
    core::AgtRamConfig cfg;
    cfg.report_mode = mode;
    cfg.observer = &bus;
    const core::MechanismResult result = core::run_agt_ram(p, cfg);
    const MessageStats& stats = bus.stats();
    EXPECT_EQ(stats.report_messages, result.reports_computed);
    EXPECT_EQ(stats.allocation_messages, result.rounds.size());
    // The winner is always told, so every allocating round fans out.
    EXPECT_GE(stats.broadcast_messages, result.rounds.size());
    EXPECT_LT(stats.broadcast_messages, stats.report_messages);
  }
}

/// Forwards every round callback to the bus and tallies the fresh reports
/// it prices, split into bids and empty reports.
class ReportTally : public core::MechanismObserver {
 public:
  explicit ReportTally(MessageBus& bus) : bus_(bus) {}

  void on_round_begin(std::size_t round) override {
    bus_.on_round_begin(round);
  }
  void on_report(drp::ServerId agent, const core::Report& report,
                 bool fresh) override {
    if (fresh) ++(report.has_candidate ? bids : empties);
    bus_.on_report(agent, report, fresh);
  }
  void on_allocation(drp::ServerId winner, drp::ObjectIndex object,
                     double payment) override {
    bus_.on_allocation(winner, object, payment);
  }
  void on_broadcast(drp::ServerId winner, drp::ObjectIndex object,
                    std::span<const drp::ServerId> notified) override {
    bus_.on_broadcast(winner, object, notified);
  }

  std::uint64_t bids = 0;
  std::uint64_t empties = 0;

 private:
  MessageBus& bus_;
};

TEST(MessageBusTest, ByteAccountingMatchesWireSizes) {
  const drp::Problem p = testutil::small_instance(125, 24, 96);
  for (const core::ReportMode mode :
       {core::ReportMode::Naive, core::ReportMode::Incremental}) {
    MessageBus bus(p, MessageBus::pick_centre(p));
    ReportTally tally(bus);
    core::AgtRamConfig cfg;
    cfg.report_mode = mode;
    cfg.observer = &tally;
    core::run_agt_ram(p, cfg);
    const MessageStats& stats = bus.stats();
    // The terminating round's reports are empty; every allocation had bids.
    EXPECT_GT(tally.bids, 0u);
    EXPECT_GT(tally.empties, 0u);
    EXPECT_EQ(stats.report_messages, tally.bids + tally.empties);
    EXPECT_EQ(stats.report_bytes, tally.bids * kReportWireBytes +
                                      tally.empties * kEmptyReportWireBytes);
    EXPECT_EQ(stats.allocation_bytes,
              stats.allocation_messages * kAllocationWireBytes);
    EXPECT_EQ(stats.broadcast_bytes,
              stats.broadcast_messages * kBroadcastWireBytes);
  }
}

TEST(DistributedTest, MatchesSerialAllocation) {
  const drp::Problem p = testutil::small_instance(121, 24, 80);
  const auto serial = core::run_agt_ram(p);
  const auto distributed = run_distributed(p);
  ASSERT_EQ(serial.rounds.size(), distributed.result.rounds.size());
  for (std::size_t r = 0; r < serial.rounds.size(); ++r) {
    EXPECT_EQ(serial.rounds[r].winner, distributed.result.rounds[r].winner);
    EXPECT_EQ(serial.rounds[r].object, distributed.result.rounds[r].object);
  }
  EXPECT_DOUBLE_EQ(drp::CostModel::total_cost(serial.placement),
                   drp::CostModel::total_cost(distributed.result.placement));
}

TEST(DistributedTest, ReportFieldsPopulated) {
  const drp::Problem p = testutil::small_instance(122);
  const auto report = run_distributed(p);
  EXPECT_LT(report.centre, p.server_count());
  EXPECT_GT(report.messages.rounds, 0u);
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(DistributedTest, CentreTrafficIsScalarPerAgentPerRound) {
  // The semi-distributed claim: the centre receives one scalar report per
  // live agent per round and emits one binary decision — its inbound
  // message count must equal the number of (round, live agent) pairs, not
  // grow with N.
  const drp::Problem p = testutil::small_instance(124, 16, 120);
  const auto report = run_distributed(p);
  EXPECT_LE(report.messages.report_messages,
            report.messages.rounds * p.server_count());
}

// --------------------------------------------------- protocol timing

/// Times the flat naive rounds of `p` on a bus at `centre` (the metric
/// medoid when negative): the paper's literal Figure 2 traffic.
MessageStats timed_naive_run(const drp::Problem& p,
                             const ProtocolModel& model = {},
                             std::int64_t centre = -1) {
  MessageBus bus(p,
                 centre >= 0 ? static_cast<drp::ServerId>(centre)
                             : MessageBus::pick_centre(p),
                 model);
  core::AgtRamConfig cfg;
  cfg.report_mode = core::ReportMode::Naive;
  cfg.observer = &bus;
  core::run_agt_ram(p, cfg);
  return bus.stats();
}

struct TimedRegionalRun {
  core::RegionalResult result;
  MessageStats stats;
  std::vector<drp::ServerId> centres;
};

/// Times run_regional's epochs on a bus with one centre per region.
TimedRegionalRun timed_regional_run(const drp::Problem& p,
                                    std::uint32_t regions,
                                    const ProtocolModel& model = {}) {
  core::RegionalConfig cfg;
  cfg.regions = regions;
  MessageBus bus(p, core::cluster_regions(p, cfg), model);
  cfg.observer = &bus;
  core::RegionalResult result = core::run_regional(p, cfg);
  return {std::move(result), bus.stats(), bus.centres()};
}

void expect_same_protocol_stats(const MessageStats& a, const MessageStats& b) {
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);  // bitwise
  EXPECT_EQ(a.network_seconds, b.network_seconds);
  EXPECT_EQ(a.compute_seconds, b.compute_seconds);
  EXPECT_EQ(a.centre_seconds, b.centre_seconds);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.report_messages, b.report_messages);
  EXPECT_EQ(a.report_bytes, b.report_bytes);
  EXPECT_EQ(a.allocation_messages, b.allocation_messages);
  EXPECT_EQ(a.broadcast_messages, b.broadcast_messages);
  EXPECT_EQ(a.lost_messages, b.lost_messages);
}

TEST(EventSim, PlacesExactlyWhatTheMechanismPlaces) {
  const drp::Problem p = testutil::small_instance(501, 24, 80);
  const auto mechanism = core::run_agt_ram(p);
  const MessageStats timed = timed_naive_run(p);
  EXPECT_EQ(timed.allocation_messages, mechanism.rounds.size());
  // Allocation rounds plus the terminating all-empty round.
  EXPECT_EQ(timed.rounds, mechanism.rounds.size() + 1);
}

// The flat naive timings of the discrete-event simulator the bus replaced,
// recorded at its last commit on two instances under ablation_runtime's
// three network scenarios.  The bus
// times the mechanism's own naive rounds and must reproduce every one
// bitwise: makespan, critical-path split, rounds, messages (polls, reports,
// allocations, fan-out and retransmissions), retransmissions and replicas.
TEST(EventSim, NaiveTimingsPinned) {
  struct Pinned {
    std::uint64_t seed;
    std::uint32_t servers;
    std::uint32_t objects;
    double capacity;
    double straggler;
    double loss;
    double makespan;
    double network;
    double compute;
    double centre;
    std::size_t rounds;
    std::uint64_t messages;
    std::uint64_t retransmits;
    std::uint64_t replicas;
  };
  const Pinned pins[] = {
      {501, 24, 80, 0.05, 0.0, 0.0, 0x1.28dcb2f3ddb2cp-4,
       0x1.288ce703afb81p-4, 0x1.ffb480a5acccfp-16, 0x1.7e85411d00c1dp-15,
       38, 1443, 0, 37},
      {501, 24, 80, 0.05, 3.0, 0.0, 0x1.2911234ddd61p-4, 0x1.288ce703afb81p-4,
       0x1.51ae882823c46p-14, 0x1.7e85411d00c1dp-15, 38, 1443, 0, 37},
      {501, 24, 80, 0.05, 0.0, 0.02, 0x1.1145e26260477p+0,
       0x1.1141205bc01a5p+0, 0x1.c4fc1df3300d7p-16, 0x1.7e85411d00c1dp-15,
       38, 1468, 25, 37},
      {508, 32, 120, 0.06, 0.0, 0.0, 0x1.ffe9094375a0ap-4,
       0x1.ff2e48e8a71dap-4, 0x1.1904b3c3e74abp-14, 0x1.d1fcb7762372ap-14,
       71, 3445, 0, 70},
      {508, 32, 120, 0.06, 3.0, 0.0, 0x1.0030c98d18025p-3,
       0x1.ff2e48e8a71dap-4, 0x1.7d960756bb7f1p-13, 0x1.d1fcb7762372ap-14,
       71, 3445, 0, 70},
      {508, 32, 120, 0.06, 0.0, 0.02, 0x1.74f2e1338c1e9p+1,
       0x1.74ed916872affp+1, 0x1.abd1aa821f29p-15, 0x1.d1fcb7762372ap-14,
       71, 3512, 67, 70},
  };
  for (const Pinned& pin : pins) {
    SCOPED_TRACE("seed " + std::to_string(pin.seed) + " straggler " +
                 std::to_string(pin.straggler) + " loss " +
                 std::to_string(pin.loss));
    const drp::Problem p = testutil::small_instance(pin.seed, pin.servers,
                                                    pin.objects, pin.capacity);
    ProtocolModel model;
    model.straggler_factor = pin.straggler;
    model.loss_probability = pin.loss;
    const MessageStats timed = timed_naive_run(p, model);
    EXPECT_EQ(timed.simulated_seconds, pin.makespan);
    EXPECT_EQ(timed.network_seconds, pin.network);
    EXPECT_EQ(timed.compute_seconds, pin.compute);
    EXPECT_EQ(timed.centre_seconds, pin.centre);
    EXPECT_EQ(timed.rounds, pin.rounds);
    EXPECT_EQ(timed.total_messages(), pin.messages);
    EXPECT_EQ(timed.lost_messages, pin.retransmits);
    EXPECT_EQ(timed.allocation_messages, pin.replicas);
  }
}

TEST(EventSim, ZeroCostModelYieldsZeroMakespan) {
  const drp::Problem p = testutil::small_instance(502, 16, 40);
  ProtocolModel model;
  model.seconds_per_cost_unit = 0.0;
  model.message_overhead = 0.0;
  model.seconds_per_evaluation = 0.0;
  model.seconds_per_report_at_centre = 0.0;
  const MessageStats timed = timed_naive_run(p, model);
  EXPECT_DOUBLE_EQ(timed.simulated_seconds, 0.0);
  EXPECT_GT(timed.allocation_messages, 0u);
}

TEST(EventSim, MakespanDecomposesIntoParts) {
  const drp::Problem p = testutil::small_instance(503, 20, 60);
  const MessageStats timed = timed_naive_run(p);
  EXPECT_GT(timed.simulated_seconds, 0.0);
  EXPECT_NEAR(timed.network_seconds + timed.compute_seconds +
                  timed.centre_seconds,
              timed.simulated_seconds,
              1e-9 * timed.simulated_seconds + 1e-12);
  EXPECT_GT(timed.network_seconds, 0.0);
  EXPECT_GT(timed.compute_seconds, 0.0);
}

TEST(EventSim, LatencyScalesLinearly) {
  const drp::Problem p = testutil::small_instance(504, 20, 60);
  ProtocolModel slow;
  ProtocolModel fast = slow;
  fast.seconds_per_cost_unit = slow.seconds_per_cost_unit / 2.0;
  fast.message_overhead = slow.message_overhead / 2.0;
  fast.seconds_per_evaluation = slow.seconds_per_evaluation / 2.0;
  fast.seconds_per_report_at_centre = slow.seconds_per_report_at_centre / 2.0;
  const double slow_time = timed_naive_run(p, slow).simulated_seconds;
  const double fast_time = timed_naive_run(p, fast).simulated_seconds;
  EXPECT_NEAR(fast_time, slow_time / 2.0, 1e-9 * slow_time);
}

TEST(EventSim, StragglersSlowTheBarrier) {
  const drp::Problem p = testutil::small_instance(505, 24, 80);
  ProtocolModel calm;
  ProtocolModel straggly = calm;
  straggly.straggler_factor = 4.0;
  EXPECT_GT(timed_naive_run(p, straggly).simulated_seconds,
            timed_naive_run(p, calm).simulated_seconds);
}

TEST(EventSim, MessageLossCostsRetransmissions) {
  const drp::Problem p = testutil::small_instance(506, 20, 60);
  ProtocolModel lossless;
  ProtocolModel lossy = lossless;
  lossy.loss_probability = 0.05;
  const MessageStats clean = timed_naive_run(p, lossless);
  const MessageStats noisy = timed_naive_run(p, lossy);
  EXPECT_EQ(clean.lost_messages, 0u);
  EXPECT_GT(noisy.lost_messages, 0u);
  // Each loss costs exactly one more send.
  EXPECT_EQ(noisy.total_messages(),
            clean.total_messages() + noisy.lost_messages);
  EXPECT_GT(noisy.simulated_seconds, clean.simulated_seconds);
  // Loss affects timing, never correctness.
  EXPECT_EQ(noisy.allocation_messages, clean.allocation_messages);
}

TEST(EventSim, DeterministicInSeed) {
  const drp::Problem p = testutil::small_instance(507, 20, 60);
  ProtocolModel model;
  model.straggler_factor = 2.0;
  model.loss_probability = 0.02;
  expect_same_protocol_stats(timed_naive_run(p, model),
                             timed_naive_run(p, model));
}

TEST(EventSim, RegionalProtocolOverlapsRounds) {
  // R regions progress concurrently: the regional makespan must undercut
  // the flat protocol's on the same instance.
  const drp::Problem p = testutil::small_instance(508, 32, 120, 0.06);
  const double flat = timed_naive_run(p).simulated_seconds;
  const double regional = timed_regional_run(p, 4).stats.simulated_seconds;
  EXPECT_LT(regional, flat);
}

TEST(EventSim, RegionalPlacesSameReplicaVolumeAsRegionalMechanism) {
  // The bus observes run_regional itself: it counts the engine's replicas
  // and epochs, and talks to the engine's own regional centres.
  const drp::Problem p = testutil::small_instance(509, 24, 80);
  const TimedRegionalRun timed = timed_regional_run(p, 4);
  EXPECT_EQ(timed.stats.allocation_messages, timed.result.replicas_placed());
  EXPECT_EQ(timed.stats.rounds, timed.result.epochs);
  EXPECT_EQ(timed.centres, timed.result.clustering.medoids);
  ASSERT_EQ(timed.centres.size(), 4u);
}

TEST(EventSim, RegionalBusAtOneRegionEqualsFlatNaiveBus) {
  // One region is the flat mechanism: the same rounds, polled in the same
  // order by the same centre, so every timing matches bit for bit, faults
  // included.
  const drp::Problem p = testutil::small_instance(509, 24, 80);
  ProtocolModel model;
  model.straggler_factor = 2.0;
  model.loss_probability = 0.02;
  const TimedRegionalRun regional = timed_regional_run(p, 1, model);
  ASSERT_EQ(regional.centres.size(), 1u);
  expect_same_protocol_stats(regional.stats,
                             timed_naive_run(p, model, regional.centres[0]));
  EXPECT_GT(regional.stats.lost_messages, 0u);
}

TEST(EventSim, MoreRegionsNeverSlowTheProtocolDown) {
  const drp::Problem p = testutil::small_instance(510, 32, 120, 0.06);
  double last = timed_regional_run(p, 1).stats.simulated_seconds;
  for (std::uint32_t r : {2u, 4u, 8u}) {
    const double makespan = timed_regional_run(p, r).stats.simulated_seconds;
    EXPECT_LT(makespan, last * 1.15) << r << " regions";
    last = makespan;
  }
}

}  // namespace
