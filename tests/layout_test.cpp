// Proof obligations for the CSR-flat hot-state layout (access matrix pools,
// inline/arena replicator sets, flat NN cache):
//
//  * golden parity — the mechanism's costs on the seed instances must be
//    *bit-identical* to values captured on the pre-migration nested-vector
//    layout (hexfloat constants below are pre-refactor %a output, exact);
//  * churn safety — randomized add/remove sequences hold every structural
//    invariant after *every* mutation, including the inline -> spill-arena
//    crossover at kInlineReplicators and back;
//  * copy semantics — copies re-home spilled sets into a compact private
//    arena and stay independent of the original;
//  * transposed slots — every by-server cell's slot equals accessor_slot,
//    and every by-object cell's recorded transpose position points back at
//    it, before and after demand deltas, on the trace, dispersed and sparse
//    instance families.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/prng.hpp"
#include "core/agt_ram.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;

drp::Problem seed_instance(std::uint32_t servers, std::uint32_t objects,
                           bool dispersed) {
  drp::InstanceSpec spec;
  spec.servers = servers;
  spec.objects = objects;
  spec.seed = 42;
  if (dispersed) {
    spec.demand = drp::DemandModel::Dispersed;
    spec.readers_per_object = 8.0;
  }
  spec.instance.capacity_fraction = 0.01;
  spec.instance.rw_ratio = 0.9;
  return drp::make_instance(spec);
}

// Captured on the pre-migration layout (nested vectors, binary-search NN
// lookups) at commit b73a4db: seed 42, capacity 1%, R/W 0.9.  The flat
// layout must reproduce every double bit for bit — any deviation means the
// refactor changed arithmetic, not just memory placement.
TEST(LayoutGolden, TraceSeedInstanceMatchesPreMigrationCapture) {
  const drp::Problem p = seed_instance(64, 640, /*dispersed=*/false);
  const drp::ReplicaPlacement primaries(p);
  EXPECT_EQ(drp::CostModel::total_cost(primaries), 0x1.4c08c8p+22);
  const auto mech = core::run_agt_ram(p);
  EXPECT_EQ(drp::CostModel::total_cost(mech.placement), 0x1.7e5058p+21);
  EXPECT_EQ(mech.rounds.size(), 128u);
  EXPECT_EQ(mech.placement.replica_count(), 768u);
}

TEST(LayoutGolden, DispersedSeedInstanceMatchesPreMigrationCapture) {
  const drp::Problem p = seed_instance(64, 640, /*dispersed=*/true);
  const drp::ReplicaPlacement primaries(p);
  EXPECT_EQ(drp::CostModel::total_cost(primaries), 0x1.079fd8p+21);
  const auto mech = core::run_agt_ram(p);
  EXPECT_EQ(drp::CostModel::total_cost(mech.placement), 0x1.27919p+20);
  EXPECT_EQ(mech.rounds.size(), 382u);
  EXPECT_EQ(mech.placement.replica_count(), 1022u);
}

TEST(LayoutGolden, MidScaleDispersedMatchesPreMigrationCapture) {
  const drp::Problem p = seed_instance(256, 2560, /*dispersed=*/true);
  const drp::ReplicaPlacement primaries(p);
  EXPECT_EQ(drp::CostModel::total_cost(primaries), 0x1.1916aep+23);
  const auto mech = core::run_agt_ram(p);
  EXPECT_EQ(drp::CostModel::total_cost(mech.placement), 0x1.fd0498p+21);
  EXPECT_EQ(mech.rounds.size(), 3403u);
}

// Roomy capacities so single objects can cross the inline-buffer boundary
// (kInlineReplicators = 8) in both directions.
drp::Problem roomy_instance(std::uint64_t seed) {
  return testutil::small_instance(seed, 24, 48, /*capacity=*/0.6,
                                  /*rw=*/0.9);
}

class LayoutFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LayoutFuzz, ChurnHoldsInvariantsAfterEveryMutation) {
  common::Rng rng(GetParam());
  const drp::Problem p = roomy_instance(rng());
  drp::ReplicaPlacement placement(p);
  std::vector<std::pair<drp::ServerId, drp::ObjectIndex>> extras;
  for (int op = 0; op < 300; ++op) {
    const auto i = static_cast<drp::ServerId>(rng.below(p.server_count()));
    const auto k = static_cast<drp::ObjectIndex>(rng.below(p.object_count()));
    if (!extras.empty() && rng.chance(0.35)) {
      const std::size_t victim = rng.below(extras.size());
      placement.remove_replica(extras[victim].first, extras[victim].second);
      extras.erase(extras.begin() + static_cast<std::ptrdiff_t>(victim));
    } else if (placement.can_replicate(i, k)) {
      placement.add_replica(i, k);
      extras.emplace_back(i, k);
    } else {
      continue;  // no mutation happened; nothing new to check
    }
    ASSERT_NO_THROW(placement.check_invariants()) << "after op " << op;
  }
}

TEST_P(LayoutFuzz, InlineToArenaCrossoverAndBack) {
  common::Rng rng(GetParam() ^ 0x77);
  const drp::Problem p = roomy_instance(rng());
  drp::ReplicaPlacement placement(p);
  // Drive one object's replicator set well past the inline capacity, then
  // strip it back down to the primary, validating at every step.
  const drp::ObjectIndex k =
      static_cast<drp::ObjectIndex>(rng.below(p.object_count()));
  std::vector<drp::ServerId> added;
  for (drp::ServerId i = 0; i < p.server_count(); ++i) {
    if (!placement.can_replicate(i, k)) continue;
    placement.add_replica(i, k);
    added.push_back(i);
    ASSERT_NO_THROW(placement.check_invariants());
    ASSERT_TRUE(placement.is_replicator(i, k));
  }
  ASSERT_GT(added.size() + 1, drp::ReplicaPlacement::kInlineReplicators)
      << "instance too tight to exercise the spill arena";
  while (!added.empty()) {
    const std::size_t victim = rng.below(added.size());
    placement.remove_replica(added[victim], k);
    added.erase(added.begin() + static_cast<std::ptrdiff_t>(victim));
    ASSERT_NO_THROW(placement.check_invariants());
  }
  EXPECT_EQ(placement.replicators(k).size(), 1u);  // primary survives
}

TEST_P(LayoutFuzz, CopiesAreIndependentOfTheOriginal) {
  common::Rng rng(GetParam() ^ 0xAB);
  const drp::Problem p = roomy_instance(rng());
  drp::ReplicaPlacement original(p);
  std::vector<std::pair<drp::ServerId, drp::ObjectIndex>> extras;
  for (int op = 0; op < 200; ++op) {
    const auto i = static_cast<drp::ServerId>(rng.below(p.server_count()));
    const auto k = static_cast<drp::ObjectIndex>(rng.below(p.object_count()));
    if (original.can_replicate(i, k)) {
      original.add_replica(i, k);
      extras.emplace_back(i, k);
    }
  }
  drp::ReplicaPlacement copy = original;  // compacts spilled sets
  ASSERT_NO_THROW(copy.check_invariants());
  const double cost_before = drp::CostModel::total_cost(copy);

  // Mutating the original must not disturb the copy's sets or NN cache.
  for (const auto& [i, k] : extras) original.remove_replica(i, k);
  ASSERT_NO_THROW(original.check_invariants());
  ASSERT_NO_THROW(copy.check_invariants());
  EXPECT_EQ(drp::CostModel::total_cost(copy), cost_before);
  for (const auto& [i, k] : extras) {
    EXPECT_TRUE(copy.is_replicator(i, k));
    EXPECT_FALSE(original.is_replicator(i, k));
  }

  // And copy-assignment over a churned placement behaves the same way.
  drp::ReplicaPlacement assigned(p);
  assigned = copy;
  ASSERT_NO_THROW(assigned.check_invariants());
  EXPECT_EQ(drp::CostModel::total_cost(assigned), cost_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutFuzz,
                         ::testing::Values(9001, 9002, 9003));

// The by-server transpose carries each cell's slot in its object row; agent
// construction and the online engine's fail walk read it instead of
// searching, so it must equal accessor_slot and address the same demand.
// The other direction, server_slot, is what apply_demand_delta follows into
// the transpose, so it must land on the twin cell with the same demand.
void expect_slots_match(const drp::AccessMatrix& access) {
  for (drp::ServerId i = 0; i < access.server_count(); ++i) {
    for (const drp::ServerSideAccess& cell : access.server_objects(i)) {
      ASSERT_EQ(cell.slot, access.accessor_slot(i, cell.object))
          << "server " << i << " object " << cell.object;
      const drp::Access& same = access.accessors(cell.object)[cell.slot];
      ASSERT_EQ(same.reads, cell.reads);
      ASSERT_EQ(same.writes, cell.writes);
    }
  }
  for (drp::ObjectIndex k = 0; k < access.object_count(); ++k) {
    const auto row = access.accessors(k);
    for (std::size_t slot = 0; slot < row.size(); ++slot) {
      const auto server_row = access.server_objects(row[slot].server);
      const std::size_t at = access.server_slot(k, slot);
      ASSERT_LT(at, server_row.size()) << "object " << k << " slot " << slot;
      ASSERT_EQ(server_row[at].object, k) << "slot " << slot;
      ASSERT_EQ(server_row[at].slot, slot) << "object " << k;
      ASSERT_EQ(server_row[at].reads, row[slot].reads);
      ASSERT_EQ(server_row[at].writes, row[slot].writes);
    }
  }
}

// Slots are structural: demand moving on existing cells, down to zero and
// back up, leaves every one in place.
void expect_slots_survive_deltas(drp::AccessMatrix access) {
  expect_slots_match(access);
  for (drp::ObjectIndex k = 0; k < access.object_count(); ++k) {
    const auto row = access.accessors(k);
    for (std::size_t slot = 0; slot < row.size(); ++slot) {
      const drp::Access cell = row[slot];
      if (slot % 3 == 0) {
        access.apply_demand_delta(cell.server, k,
                                  -static_cast<std::int64_t>(cell.reads), 1);
      } else if (cell.reads > 0) {
        access.apply_demand_delta(cell.server, k, 5, 0);
      }
    }
  }
  expect_slots_match(access);
}

TEST(LayoutSlots, TraceFamilySlotsMatchAccessorSlot) {
  expect_slots_survive_deltas(
      seed_instance(64, 640, /*dispersed=*/false).access);
}

TEST(LayoutSlots, DispersedFamilySlotsMatchAccessorSlot) {
  expect_slots_survive_deltas(
      seed_instance(64, 640, /*dispersed=*/true).access);
}

TEST(LayoutSlots, SparseInstanceSlotsMatchAccessorSlot) {
  drp::InstanceSpec spec;
  spec.servers = 300;
  spec.objects = 400;
  spec.seed = 5;
  spec.demand = drp::DemandModel::Dispersed;
  expect_slots_survive_deltas(drp::make_sparse_instance(spec).base.access);
}

}  // namespace
