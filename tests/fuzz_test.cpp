// Randomised torture tests: drive the whole stack with generated configs
// and operation sequences, holding only the universal invariants fixed —
// feasibility, cache consistency, cost-engine/replay agreement, and
// serialisation round trips.  Each TEST_P seed explores a different part
// of the configuration space.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "baselines/registry.hpp"
#include "common/prng.hpp"
#include "core/agt_ram.hpp"
#include "core/online.hpp"
#include "core/regional.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"
#include "drp/placement_io.hpp"
#include "net/topology.hpp"
#include "runtime/event_sim.hpp"
#include "sim/horizon.hpp"
#include "sim/replay.hpp"

namespace {

using namespace agtram;

drp::Problem random_instance(common::Rng& rng) {
  drp::InstanceSpec spec;
  spec.servers = static_cast<std::uint32_t>(rng.between(6, 40));
  spec.objects = static_cast<std::uint32_t>(rng.between(10, 120));
  const net::TopologyKind kinds[] = {
      net::TopologyKind::FlatRandom, net::TopologyKind::Waxman,
      net::TopologyKind::TransitStub, net::TopologyKind::PowerLaw};
  spec.topology = kinds[rng.below(4)];
  spec.edge_probability = rng.uniform(0.1, 0.9);
  spec.requests_per_object = rng.uniform(20.0, 200.0);
  spec.instance.capacity_fraction = rng.uniform(0.0, 0.3);
  spec.instance.rw_ratio = rng.uniform(0.3, 1.0);
  spec.instance.writers_per_object =
      static_cast<std::uint32_t>(rng.between(1, 8));
  spec.instance.write_popularity_exponent = rng.uniform(0.0, 1.2);
  spec.seed = rng();
  return drp::make_instance(spec);
}

class Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fuzz, RandomInstancesValidate) {
  common::Rng rng(GetParam());
  for (int trial = 0; trial < 6; ++trial) {
    const drp::Problem p = random_instance(rng);
    EXPECT_NO_THROW(p.validate());
    EXPECT_GT(p.access.grand_total_reads(), 0u);
  }
}

TEST_P(Fuzz, RandomPlacementChurnHoldsInvariants) {
  common::Rng rng(GetParam() ^ 0x11);
  const drp::Problem p = random_instance(rng);
  drp::ReplicaPlacement placement(p);
  std::vector<std::pair<drp::ServerId, drp::ObjectIndex>> extras;
  for (int op = 0; op < 400; ++op) {
    const auto i = static_cast<drp::ServerId>(rng.below(p.server_count()));
    const auto k = static_cast<drp::ObjectIndex>(rng.below(p.object_count()));
    if (!extras.empty() && rng.chance(0.4)) {
      const std::size_t victim = rng.below(extras.size());
      placement.remove_replica(extras[victim].first, extras[victim].second);
      extras.erase(extras.begin() + static_cast<std::ptrdiff_t>(victim));
    } else if (placement.can_replicate(i, k)) {
      placement.add_replica(i, k);
      extras.emplace_back(i, k);
    }
  }
  EXPECT_NO_THROW(placement.check_invariants());
  // Replay and the analytic engine agree on arbitrary (even bad) schemes.
  EXPECT_NEAR(sim::replay(placement).total_units(),
              drp::CostModel::total_cost(placement),
              1e-6 * std::max(1.0, drp::CostModel::total_cost(placement)));
}

TEST_P(Fuzz, EveryAlgorithmSurvivesRandomInstances) {
  common::Rng rng(GetParam() ^ 0x22);
  const drp::Problem p = random_instance(rng);
  const double initial = drp::CostModel::initial_cost(p);
  for (const auto& algorithm : baselines::extended_algorithms()) {
    SCOPED_TRACE(algorithm.name);
    const auto placement = algorithm.run(p, rng());
    EXPECT_NO_THROW(placement.check_invariants());
    EXPECT_LE(drp::CostModel::total_cost(placement), initial * 1.0001);
  }
}

TEST_P(Fuzz, MechanismVariantsSurviveRandomInstances) {
  common::Rng rng(GetParam() ^ 0x33);
  const drp::Problem p = random_instance(rng);
  core::RegionalConfig rc;
  rc.regions = static_cast<std::uint32_t>(rng.between(1, 6));
  rc.seed = rng();
  EXPECT_NO_THROW(
      core::run_regional(p, rc).placement.check_invariants());
  EXPECT_NO_THROW(
      core::run_regional_cooperative(p, rc).placement.check_invariants());
  EXPECT_NO_THROW(
      core::run_hierarchical(p, rc).placement.check_invariants());
}

TEST_P(Fuzz, AdaptiveSurvivesRandomDrift) {
  common::Rng rng(GetParam() ^ 0x44);
  const drp::Problem p = random_instance(rng);
  const double drift = rng.uniform(0.0, 0.8);
  const std::uint64_t seed = rng();
  core::OnlineConfig online;
  online.eviction_limit = std::numeric_limits<std::size_t>::max();
  online.differential_oracle = true;
  core::OnlineMechanism engine(p, online);
  runtime::OnlineEventSource source(engine,
                                    sim::day_drift_model(p, drift, seed));
  engine.apply_events(source.next_batch());
  engine.apply_events({});
  EXPECT_NO_THROW(engine.placement().check_invariants());
  EXPECT_LE(engine.total_cost(),
            drp::CostModel::initial_cost(engine.problem()) * 1.0001);
}

TEST_P(Fuzz, PlacementSerialisationRoundTripsRandomSchemes) {
  common::Rng rng(GetParam() ^ 0x55);
  const drp::Problem p = random_instance(rng);
  const auto algorithms = baselines::all_algorithms();
  const auto placement = algorithms[rng.below(algorithms.size())].run(p, rng());
  std::stringstream ss;
  drp::write_placement(ss, placement);
  const drp::ReplicaPlacement loaded = drp::read_placement(ss, p);
  EXPECT_DOUBLE_EQ(drp::CostModel::total_cost(loaded),
                   drp::CostModel::total_cost(placement));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz,
                         ::testing::Values(1001, 1002, 1003, 1004, 1005));

}  // namespace
