// Tests for the request-replay simulator — most importantly the agreement
// between the routed totals and the analytic Equation-4 cost engine.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "baselines/registry.hpp"
#include "core/agt_ram.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"
#include "sim/replay.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;

TEST(Replay, HandComputedLine3Totals) {
  const drp::Problem p = testutil::line3_problem();
  const drp::ReplicaPlacement primaries(p);
  const sim::ReplayStats stats = sim::replay(primaries);
  // Reads: S1->S0 for O0: 10*2*1 = 20; S2->S0: 4*2*3 = 24;
  //        S0->S2 for O1: 6*3*3 = 54.  Total 98.
  EXPECT_DOUBLE_EQ(stats.read_units, 98.0);
  // Writes shipped: S1->S0 (O0): 1*2*1 = 2; S0->S2 (O1): 2*3*3 = 18;
  //                 S1->S2 (O1): 1*3*2 = 6.  Total 26.
  EXPECT_DOUBLE_EQ(stats.write_ship_units, 26.0);
  // No extra replicators -> no broadcast traffic.
  EXPECT_DOUBLE_EQ(stats.broadcast_units, 0.0);
  EXPECT_EQ(stats.read_requests, 20u);
  EXPECT_EQ(stats.write_requests, 4u);
}

TEST(Replay, BroadcastAccounting) {
  const drp::Problem p = testutil::line3_problem();
  drp::ReplicaPlacement placement(p);
  placement.add_replica(1, 0);
  placement.add_replica(2, 0);
  const sim::ReplayStats stats = sim::replay(placement);
  // S1 receives 0 foreign updates of O0 (it is the only writer);
  // S2 receives 1 update over distance 3 with size 2 -> 6 units.
  EXPECT_DOUBLE_EQ(stats.broadcast_units, 6.0);
}

class ReplayAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplayAgreement, RoutedTotalEqualsAnalyticCost) {
  // Two independent implementations of the paper's cost semantics must
  // agree on every placement any algorithm produces.
  const drp::Problem p = testutil::small_instance(GetParam(), 20, 70, 0.05);
  for (const auto& algorithm : baselines::all_algorithms()) {
    SCOPED_TRACE(algorithm.name);
    const auto placement = algorithm.run(p, GetParam());
    const double analytic = drp::CostModel::total_cost(placement);
    const double routed = sim::replay(placement).total_units();
    EXPECT_NEAR(routed, analytic, 1e-6 * std::max(1.0, analytic));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayAgreement,
                         ::testing::Values(401, 402, 403, 404));

TEST(Replay, LatencySummaryIsCoherent) {
  const drp::Problem p = testutil::small_instance(405, 24, 80);
  const sim::ReplayStats stats = sim::replay(drp::ReplicaPlacement(p));
  EXPECT_GE(stats.read_latency.p50, 0.0);
  EXPECT_LE(stats.read_latency.p50, stats.read_latency.p90);
  EXPECT_LE(stats.read_latency.p90, stats.read_latency.p99);
  EXPECT_LE(stats.read_latency.p99, stats.read_latency.worst + 1e-12);
  EXPECT_GE(stats.read_latency.mean, 0.0);
  EXPECT_LE(stats.read_latency.mean, stats.read_latency.worst);
  EXPECT_GE(stats.read_latency.local_fraction, 0.0);
  EXPECT_LE(stats.read_latency.local_fraction, 1.0);
}

TEST(Replay, MechanismReducesUserPerceivedLatency) {
  // The paper's opening claim: replication alleviates access delays.
  const drp::Problem p = testutil::small_instance(406, 24, 80, 0.06);
  const sim::ReplayStats before = sim::replay(drp::ReplicaPlacement(p));
  const sim::ReplayStats after = sim::replay(core::run_agt_ram(p).placement);
  ASSERT_GT(after.read_latency.mean, 0.0);
  EXPECT_GT(before.read_latency.mean / after.read_latency.mean, 1.2);
  EXPECT_GT(after.read_latency.local_fraction,
            before.read_latency.local_fraction);
}

TEST(Replay, LoadSummaryIsCoherent) {
  const drp::Problem p = testutil::small_instance(408, 24, 80);
  const sim::ReplayStats stats = sim::replay(drp::ReplicaPlacement(p));
  EXPECT_GT(stats.server_load.mean_served, 0.0);
  EXPECT_GE(stats.server_load.max_served, stats.server_load.mean_served);
  EXPECT_GE(stats.server_load.imbalance, 1.0);
  EXPECT_GT(stats.server_load.top5_share, 0.0);
  EXPECT_LE(stats.server_load.top5_share, 1.0);
}

TEST(Replay, MechanismRelievesHotspots) {
  // The paper's §7 claim: placement near demand "while ensuring that no
  // hosts become overloaded".  Replication must spread the read service
  // load: a lower max/mean imbalance than the primaries-only scheme.
  const drp::Problem p = testutil::small_instance(409, 24, 80, 0.06);
  const auto before = sim::replay(drp::ReplicaPlacement(p));
  const auto after = sim::replay(core::run_agt_ram(p).placement);
  EXPECT_LT(after.server_load.imbalance, before.server_load.imbalance);
  EXPECT_LT(after.server_load.top5_share, before.server_load.top5_share);
}

TEST(Replay, HandComputedLoadOnLine3) {
  const drp::Problem p = testutil::line3_problem();
  drp::ReplicaPlacement placement(p);
  // Primaries only: S0 serves O0's 14 reads, S2 serves O1's 6 reads.
  const auto stats = sim::replay(placement);
  EXPECT_DOUBLE_EQ(stats.server_load.max_served, 14.0);
  EXPECT_DOUBLE_EQ(stats.server_load.mean_served, 20.0 / 3.0);
}

TEST(Replay, LocalFractionIsOneWhenFullyReplicated) {
  // Tiny instance, huge capacity: every reader replicates everything it
  // profits from; with no writes every read ends up local.
  drp::InstanceSpec spec;
  spec.servers = 8;
  spec.objects = 16;
  spec.seed = 407;
  spec.instance.capacity_fraction = 10.0;
  spec.instance.rw_ratio = 1.0;  // read-only: every replica is free
  const drp::Problem p = drp::make_instance(spec);
  const auto result = core::run_agt_ram(p);
  const sim::ReplayStats stats = sim::replay(result.placement);
  EXPECT_DOUBLE_EQ(stats.read_latency.local_fraction, 1.0);
  EXPECT_DOUBLE_EQ(stats.read_units, 0.0);
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// The read-latency summary of an AGT-RAM placement, bit for bit, on one
// trace-demand and one dispersed-demand instance.
TEST(Replay, LatencySummaryPinned) {
  drp::InstanceSpec dispersed;
  dispersed.servers = 40;
  dispersed.objects = 200;
  dispersed.seed = 411;
  dispersed.demand = drp::DemandModel::Dispersed;
  dispersed.instance.capacity_fraction = 0.05;
  const drp::Problem instances[] = {
      testutil::small_instance(410, 30, 120, 0.06),
      drp::make_instance(dispersed)};
  const double expected[2][6] = {
      // mean, p50, p90, p99, worst, local fraction
      {0x1.16bd99e83432bp+1, 0x1p+1, 0x1.8p+2, 0x1.cp+2, 0x1.2p+3,
       0x1.97f66113eeb4p-2},
      {0x1.cc36458ac92f3p+0, 0x1p+0, 0x1.4p+2, 0x1.cp+2, 0x1.2p+3,
       0x1.d64bb874f7e89p-2},
  };
  for (int i = 0; i < 2; ++i) {
    const sim::LatencySummary got =
        sim::replay(core::run_agt_ram(instances[i]).placement).read_latency;
    const double values[] = {got.mean, got.p50,   got.p90,
                             got.p99,  got.worst, got.local_fraction};
    for (int v = 0; v < 6; ++v) {
      EXPECT_EQ(values[v], expected[i][v])
          << "instance " << i << " value " << v << ": " << hexfloat(values[v]);
    }
  }
}

}  // namespace
