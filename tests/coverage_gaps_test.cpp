// Behaviours not yet pinned down by the per-module suites: pipeline
// parameter effects, degenerate participant sets, builder clamps, and
// bus/format corners.
#include <gtest/gtest.h>

#include "core/agt_ram.hpp"
#include "core/regional.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"
#include "trace/pipeline.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;

// --------------------------------------------------- pipeline parameters

TEST(TraceParams, TopClientsZeroKeepsNothing) {
  trace::DayLog day{0, {{0, 0, 1}, {1, 1, 1}}};
  EXPECT_TRUE(trace::top_clients({day}, 0).empty());
  trace::PipelineConfig cfg;
  cfg.servers = 4;
  cfg.top_clients = 0;
  const auto wl = trace::run_pipeline({day}, cfg);
  EXPECT_EQ(wl.total_requests, 0u);
}

// -------------------------------------------------------- builder clamps

TEST(BuilderClamps, WritersPerObjectClampedToServerCount) {
  drp::InstanceSpec spec;
  spec.servers = 3;
  spec.objects = 20;
  spec.seed = 13;
  spec.instance.rw_ratio = 0.6;
  spec.instance.writers_per_object = 50;  // > M, must clamp
  const drp::Problem p = drp::make_instance(spec);
  for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    std::size_t writers = 0;
    for (const auto& a : p.access.accessors(k)) {
      if (a.writes > 0) ++writers;
    }
    EXPECT_LE(writers, 3u);
  }
}

TEST(BuilderClamps, CapacityZeroStillFeasible) {
  drp::InstanceSpec spec;
  spec.servers = 8;
  spec.objects = 20;
  spec.seed = 14;
  spec.instance.capacity_fraction = 0.0;
  const drp::Problem p = drp::make_instance(spec);
  EXPECT_NO_THROW(p.validate());
  // No headroom: the mechanism terminates with zero placements.
  EXPECT_EQ(core::run_agt_ram(p).rounds.size(), 0u);
}

// ---------------------------------------------------- mechanism corners

TEST(MechanismCorners, EmptyParticipantListAllocatesNothing) {
  const drp::Problem p = testutil::small_instance(901, 16, 40);
  const std::vector<drp::ServerId> nobody;
  const auto result = core::run_agt_ram_from(p, core::AgtRamConfig{},
                                             drp::ReplicaPlacement(p),
                                             &nobody);
  EXPECT_EQ(result.rounds.size(), 0u);
  EXPECT_EQ(result.placement.extra_replica_count(), 0u);
}

TEST(MechanismCorners, WarmStartFromConvergedSchemeIsIdempotent) {
  const drp::Problem p = testutil::small_instance(902, 16, 40);
  const auto first = core::run_agt_ram(p);
  const auto again = core::run_agt_ram_from(p, core::AgtRamConfig{},
                                            first.placement);
  EXPECT_EQ(again.rounds.size(), 0u)
      << "a converged scheme has no positive candidates left";
  EXPECT_DOUBLE_EQ(drp::CostModel::total_cost(again.placement),
                   drp::CostModel::total_cost(first.placement));
}

TEST(MechanismCorners, SingleRegionEqualsFlatMechanism) {
  const drp::Problem p = testutil::small_instance(903, 20, 60);
  core::RegionalConfig cfg;
  cfg.regions = 1;
  const auto regional = core::run_regional(p, cfg);
  const auto flat = core::run_agt_ram(p);
  EXPECT_DOUBLE_EQ(drp::CostModel::total_cost(regional.placement),
                   drp::CostModel::total_cost(flat.placement));
  EXPECT_EQ(regional.replicas_placed(), flat.rounds.size());
}

TEST(MechanismCorners, AllRegionsFailedMeansNoReplicas) {
  const drp::Problem p = testutil::small_instance(904, 16, 40);
  core::RegionalConfig cfg;
  cfg.regions = 2;
  cfg.failed_regions = {0, 1};
  const auto result = core::run_regional(p, cfg);
  EXPECT_EQ(result.replicas_placed(), 0u);
}

}  // namespace
