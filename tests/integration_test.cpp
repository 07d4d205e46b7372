// Cross-module integration and property sweeps: full pipeline -> instance ->
// all six algorithms, parameterised over topology, capacity and R/W ratio.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <tuple>

#include "baselines/registry.hpp"
#include "core/agt_ram.hpp"
#include "core/online.hpp"
#include "core/regional.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"
#include "net/topology.hpp"
#include "runtime/distributed_mechanism.hpp"
#include "runtime/event_sim.hpp"
#include "sim/horizon.hpp"
#include "sim/replay.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;

drp::Problem instance_for(net::TopologyKind kind, double capacity, double rw,
                          std::uint64_t seed) {
  drp::InstanceSpec spec;
  spec.servers = 24;
  spec.objects = 120;
  spec.topology = kind;
  spec.seed = seed;
  spec.instance.capacity_fraction = capacity;
  spec.instance.rw_ratio = rw;
  return drp::make_instance(spec);
}

// ------------------------------------------------ all-algorithms sweeps

using SweepParam = std::tuple<net::TopologyKind, double /*C*/, double /*rw*/>;

class AlgorithmSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AlgorithmSweep, AllMethodsProduceFeasibleImprovingSchemes) {
  const auto [kind, capacity, rw] = GetParam();
  const drp::Problem p = instance_for(kind, capacity, rw, 1234);
  const double initial = drp::CostModel::initial_cost(p);
  ASSERT_GT(initial, 0.0);
  for (const auto& algorithm : baselines::all_algorithms()) {
    SCOPED_TRACE(algorithm.name);
    const auto placement = algorithm.run(p, 99);
    EXPECT_NO_THROW(placement.check_invariants());
    EXPECT_LE(drp::CostModel::total_cost(placement), initial * 1.0001);
  }
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = net::to_string(std::get<0>(info.param));
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  name += std::get<1>(info.param) < 0.05 ? "_tight" : "_roomy";
  name += std::get<2>(info.param) > 0.9 ? "_readheavy" : "_mixed";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    TopologyCapacityRw, AlgorithmSweep,
    ::testing::Combine(
        ::testing::Values(net::TopologyKind::FlatRandom,
                          net::TopologyKind::TransitStub,
                          net::TopologyKind::PowerLaw),
        ::testing::Values(0.01, 0.1),
        ::testing::Values(0.6, 0.95)),
    sweep_name);

// ------------------------------------------------------ paper trends

// ------------------------------------------- mechanism-variant sweeps

class VariantSweep : public ::testing::TestWithParam<net::TopologyKind> {};

TEST_P(VariantSweep, EveryMechanismVariantIsFeasibleAndConsistent) {
  const drp::Problem p = instance_for(GetParam(), 0.05, 0.9, 4321);
  const double initial = drp::CostModel::initial_cost(p);

  const auto flat = core::run_agt_ram(p);
  const double flat_cost = drp::CostModel::total_cost(flat.placement);

  // Distributed execution: identical allocation.
  const auto distributed = runtime::run_distributed(p);
  EXPECT_DOUBLE_EQ(
      drp::CostModel::total_cost(distributed.result.placement), flat_cost);

  // Regional, cooperative, hierarchical: feasible, improving, and (for the
  // hierarchy) allocation-identical to flat.
  core::RegionalConfig rc;
  rc.regions = 4;
  for (const auto& [name, placement] :
       {std::pair<const char*, drp::ReplicaPlacement>{
            "regional", core::run_regional(p, rc).placement},
        {"cooperative", core::run_regional_cooperative(p, rc).placement},
        {"hierarchical", core::run_hierarchical(p, rc).placement}}) {
    SCOPED_TRACE(name);
    EXPECT_NO_THROW(placement.check_invariants());
    EXPECT_LT(drp::CostModel::total_cost(placement), initial);
    // Replay agreement on every variant's output.
    EXPECT_NEAR(sim::replay(placement).total_units(),
                drp::CostModel::total_cost(placement),
                1e-6 * initial);
  }
  EXPECT_DOUBLE_EQ(
      drp::CostModel::total_cost(core::run_hierarchical(p, rc).placement),
      flat_cost);

  // Adaptive: one horizon day of demand drift, repaired and trimmed by the
  // online engine on top of the flat scheme, stays close to a fresh replan.
  core::OnlineConfig online;
  online.eviction_limit = std::numeric_limits<std::size_t>::max();
  core::OnlineMechanism engine(p, online);
  runtime::OnlineEventSource source(engine,
                                    sim::day_drift_model(p, 0.3, 5));
  engine.apply_events(source.next_batch());
  engine.apply_events({});
  const double replanned = drp::CostModel::total_cost(
      core::run_agt_ram(engine.problem()).placement);
  EXPECT_NEAR(engine.total_cost(), replanned, 0.08 * replanned);
}

INSTANTIATE_TEST_SUITE_P(Topologies, VariantSweep,
                         ::testing::Values(net::TopologyKind::FlatRandom,
                                           net::TopologyKind::Waxman,
                                           net::TopologyKind::PowerLaw),
                         [](const auto& param_info) {
                           std::string name = net::to_string(param_info.param);
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Trends, SavingsGrowWithCapacity) {
  double last = -1.0;
  for (double capacity : {0.002, 0.01, 0.05}) {
    const drp::Problem p =
        instance_for(net::TopologyKind::FlatRandom, capacity, 0.95, 777);
    const double savings =
        drp::CostModel::savings(core::run_agt_ram(p).placement);
    EXPECT_GE(savings, last - 0.02) << "capacity " << capacity;
    last = savings;
  }
  EXPECT_GT(last, 0.2);  // roomy capacity should unlock real savings
}

TEST(Trends, SavingsGrowWithReadRatio) {
  double last = -1.0;
  for (double rw : {0.5, 0.75, 0.95}) {
    const drp::Problem p =
        instance_for(net::TopologyKind::FlatRandom, 0.05, rw, 778);
    const double savings =
        drp::CostModel::savings(core::run_agt_ram(p).placement);
    EXPECT_GE(savings, last - 0.02) << "rw " << rw;
    last = savings;
  }
}

TEST(Trends, ReplicaCountGrowsWithCapacity) {
  const drp::Problem tight =
      instance_for(net::TopologyKind::FlatRandom, 0.001, 0.95, 779);
  const drp::Problem roomy =
      instance_for(net::TopologyKind::FlatRandom, 0.03, 0.95, 779);
  EXPECT_GT(core::run_agt_ram(roomy).placement.extra_replica_count(),
            core::run_agt_ram(tight).placement.extra_replica_count());
}

TEST(Trends, UpdateHeavyWorkloadsReplicateLess) {
  const drp::Problem read_heavy =
      instance_for(net::TopologyKind::FlatRandom, 0.05, 0.98, 780);
  const drp::Problem write_heavy =
      instance_for(net::TopologyKind::FlatRandom, 0.05, 0.55, 780);
  EXPECT_GT(core::run_agt_ram(read_heavy).placement.extra_replica_count(),
            core::run_agt_ram(write_heavy).placement.extra_replica_count());
}

TEST(Trends, AgtRamTracksGreedyQuality) {
  // The paper's headline: the mechanism matches the centralised greedy's
  // solution quality.  Allow a modest gap (greedy sees global deltas).
  const drp::Problem p =
      instance_for(net::TopologyKind::FlatRandom, 0.02, 0.9, 781);
  const double initial = drp::CostModel::initial_cost(p);
  const double greedy =
      drp::CostModel::total_cost(baselines::find_algorithm("Greedy").run(p, 1));
  const double agt = drp::CostModel::total_cost(core::run_agt_ram(p).placement);
  const double greedy_savings = (initial - greedy) / initial;
  const double agt_savings = (initial - agt) / initial;
  EXPECT_GE(agt_savings, greedy_savings - 0.15);
}

TEST(Trends, MechanismConvergesToNoPositiveCandidates) {
  // At the fixed point no agent can profitably replicate anything further —
  // the pure Nash equilibrium claim of the paper's Section 6.
  const drp::Problem p =
      instance_for(net::TopologyKind::FlatRandom, 0.05, 0.9, 782);
  const auto result = core::run_agt_ram(p);
  for (drp::ServerId i = 0; i < p.server_count(); ++i) {
    for (const auto& access : p.access.server_objects(i)) {
      if (access.reads == 0) continue;
      if (!result.placement.can_replicate(i, access.object)) continue;
      EXPECT_LE(
          drp::CostModel::agent_benefit(result.placement, i, access.object),
          1e-9)
          << "agent " << i << " still wants object " << access.object;
    }
  }
}

}  // namespace
