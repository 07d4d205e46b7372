// Edge cases and configuration corners across modules — the inputs a
// downstream user will eventually feed in.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "core/agt_ram.hpp"
#include "drp/cost_model.hpp"
#include "runtime/message_bus.hpp"
#include "trace/pipeline.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;

// ----------------------------------------------------------- common misc

TEST(TimerTest, MeasuresElapsedTimeMonotonically) {
  common::Timer timer;
  const double t0 = timer.seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double t1 = timer.seconds();
  EXPECT_GE(t0, 0.0);
  EXPECT_GT(t1, t0);
  EXPECT_NEAR(timer.millis(), timer.seconds() * 1e3, 1.0);
  timer.reset();
  EXPECT_LT(timer.seconds(), t1);
}

// ------------------------------------------------------- tiny dimensions

TEST(EdgeCase, SingleServerInstance) {
  // M = 1: every object's primary is the only server; no agent has any
  // candidate and every algorithm must terminate immediately.
  drp::Problem p;
  p.distances = std::make_shared<const net::DistanceMatrix>(
      net::DistanceMatrix::from_rows(1, {0}));
  p.object_units = {2, 3};
  p.primary = {0, 0};
  p.capacity = {100};
  std::vector<std::vector<drp::Access>> rows(2);
  rows[0] = {{0, 10, 1}};
  rows[1] = {{0, 4, 0}};
  p.access = drp::AccessMatrix::build(1, 2, std::move(rows));
  p.validate();

  const auto result = core::run_agt_ram(p);
  EXPECT_EQ(result.rounds.size(), 0u);
  // All demand is local: zero read/ship distance, zero OTC.
  EXPECT_DOUBLE_EQ(drp::CostModel::total_cost(result.placement), 0.0);
}

TEST(EdgeCase, ObjectNobodyAccesses) {
  drp::Problem p = testutil::line3_problem();
  // Append a third object with no demand at all.
  p.object_units.push_back(1);
  p.primary.push_back(1);
  std::vector<std::vector<drp::Access>> rows(3);
  rows[0] = {{1, 10, 1}, {2, 4, 0}};
  rows[1] = {{0, 6, 2}, {1, 0, 1}};
  rows[2] = {};
  p.access = drp::AccessMatrix::build(3, 3, std::move(rows));
  p.validate();

  const auto result = core::run_agt_ram(p);
  EXPECT_NO_THROW(result.placement.check_invariants());
  // The orphan object contributes nothing and attracts no replicas.
  EXPECT_EQ(result.placement.replicators(2).size(), 1u);
}

TEST(EdgeCase, ZeroCapacityHeadroom) {
  drp::Problem p = testutil::line3_problem();
  p.capacity = {2, 0, 3};  // exactly the primary loads, nothing spare
  p.validate();
  const auto result = core::run_agt_ram(p);
  EXPECT_EQ(result.rounds.size(), 0u);
  EXPECT_DOUBLE_EQ(drp::CostModel::savings(result.placement), 0.0);
}

// ------------------------------------------------------- config corners

TEST(EdgeCase, PipelineWithSingleServer) {
  trace::DayLog day{0, {{0, 0, 4}, {1, 1, 6}}};
  trace::PipelineConfig cfg;
  cfg.servers = 1;
  cfg.min_fanout = 1;
  cfg.max_fanout = 8;  // clamped to the server count
  const trace::Workload wl = trace::run_pipeline({day}, cfg);
  for (const auto& rows : wl.reads) {
    for (const auto& r : rows) EXPECT_EQ(r.server, 0u);
  }
}

TEST(EdgeCase, ProtocolSimulatorWithPinnedCentre) {
  const drp::Problem p = testutil::small_instance(804, 12, 30);
  runtime::MessageBus bus(p, 3);
  core::AgtRamConfig cfg;
  cfg.report_mode = core::ReportMode::Naive;
  cfg.observer = &bus;
  core::run_agt_ram(p, cfg);
  EXPECT_EQ(bus.centres(), std::vector<drp::ServerId>{3});
  EXPECT_GT(bus.stats().simulated_seconds, 0.0);
  EXPECT_GT(bus.stats().allocation_messages, 0u);
}

TEST(EdgeCase, StrategyReturningZeroClaims) {
  // A pathological strategy that zeroes every claim: the mechanism still
  // terminates (claims of 0 are reported; values stay positive so rounds
  // proceed on ties) and the placement stays feasible.
  const drp::Problem p = testutil::small_instance(805, 12, 30);
  core::AgtRamConfig cfg;
  cfg.strategy = [](drp::ServerId, double) { return 0.0; };
  const auto result = core::run_agt_ram(p, cfg);
  EXPECT_NO_THROW(result.placement.check_invariants());
}

TEST(EdgeCase, MaxRoundsOneAllocatesGlobalArgmax) {
  const drp::Problem p = testutil::line3_problem();
  core::AgtRamConfig cfg;
  cfg.max_rounds = 1;
  const auto result = core::run_agt_ram(p, cfg);
  ASSERT_EQ(result.rounds.size(), 1u);
  EXPECT_EQ(result.rounds[0].winner, 0u);  // S0's 45 is the global max
  EXPECT_EQ(result.rounds[0].object, 1u);
}

}  // namespace
