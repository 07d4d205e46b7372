// Unit tests for src/drp: access matrix, problem validation, placement
// state/NN maintenance, and the instance builder.
#include <gtest/gtest.h>

#include <stdexcept>

#include <sstream>

#include "drp/access_matrix.hpp"
#include "drp/builder.hpp"
#include "drp/placement.hpp"
#include "drp/placement_io.hpp"
#include "drp/problem.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;
using namespace agtram::drp;

// ------------------------------------------------------- access matrix

TEST(AccessMatrixTest, BuildSortsAndMergesDuplicates) {
  std::vector<std::vector<Access>> rows(1);
  rows[0] = {{3, 5, 1}, {1, 2, 0}, {3, 4, 2}, {2, 0, 0}};  // dup server 3,
                                                           // zero-demand 2
  const AccessMatrix m = AccessMatrix::build(4, 1, std::move(rows));
  const auto accessors = m.accessors(0);
  ASSERT_EQ(accessors.size(), 2u);
  EXPECT_EQ(accessors[0].server, 1u);
  EXPECT_EQ(accessors[1].server, 3u);
  EXPECT_EQ(accessors[1].reads, 9u);
  EXPECT_EQ(accessors[1].writes, 3u);
}

TEST(AccessMatrixTest, PointLookups) {
  std::vector<std::vector<Access>> rows(2);
  rows[0] = {{0, 7, 2}};
  rows[1] = {{1, 0, 5}};
  const AccessMatrix m = AccessMatrix::build(2, 2, std::move(rows));
  EXPECT_EQ(m.reads(0, 0), 7u);
  EXPECT_EQ(m.writes(0, 0), 2u);
  EXPECT_EQ(m.reads(1, 0), 0u);  // absent
  EXPECT_EQ(m.writes(1, 1), 5u);
  EXPECT_EQ(m.accessor_slot(1, 0), AccessMatrix::npos);
  EXPECT_EQ(m.accessor_slot(0, 0), 0u);
}

TEST(AccessMatrixTest, TotalsAndServerView) {
  std::vector<std::vector<Access>> rows(2);
  rows[0] = {{0, 3, 1}, {1, 4, 0}};
  rows[1] = {{0, 5, 2}};
  const AccessMatrix m = AccessMatrix::build(2, 2, std::move(rows));
  EXPECT_EQ(m.total_reads(0), 7u);
  EXPECT_EQ(m.total_writes(0), 1u);
  EXPECT_EQ(m.grand_total_reads(), 12u);
  EXPECT_EQ(m.grand_total_writes(), 3u);
  EXPECT_EQ(m.nonzeros(), 3u);
  const auto s0 = m.server_objects(0);
  ASSERT_EQ(s0.size(), 2u);
  EXPECT_EQ(s0[0].object, 0u);
  EXPECT_EQ(s0[1].object, 1u);
  EXPECT_EQ(s0[1].reads, 5u);
}

TEST(AccessMatrixTest, OutOfRangeServerThrows) {
  std::vector<std::vector<Access>> rows(1);
  rows[0] = {{9, 1, 0}};
  EXPECT_THROW(AccessMatrix::build(3, 1, std::move(rows)),
               std::invalid_argument);
}

TEST(AccessMatrixTest, RowCountMismatchThrows) {
  EXPECT_THROW(AccessMatrix::build(2, 3, {{}, {}}), std::invalid_argument);
}

// ------------------------------------------------------------- problem

TEST(ProblemTest, ValidInstancePasses) {
  EXPECT_NO_THROW(testutil::line3_problem().validate());
}

TEST(ProblemTest, PrimaryLoad) {
  const Problem p = testutil::line3_problem();
  const auto load = p.primary_load();
  EXPECT_EQ(load[0], 2u);  // O0 (size 2) on S0
  EXPECT_EQ(load[1], 0u);
  EXPECT_EQ(load[2], 3u);  // O1 (size 3) on S2
}

TEST(ProblemTest, ValidationCatchesEachInconsistency) {
  {
    Problem p = testutil::line3_problem();
    p.distances = nullptr;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    Problem p = testutil::line3_problem();
    p.capacity.push_back(5);
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    Problem p = testutil::line3_problem();
    p.primary[0] = 7;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    Problem p = testutil::line3_problem();
    p.object_units[1] = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    Problem p = testutil::line3_problem();
    p.capacity[0] = 1;  // cannot hold its size-2 primary
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
}

TEST(ProblemTest, SummaryMentionsDimensions) {
  const std::string s = testutil::line3_problem().summary();
  EXPECT_NE(s.find("M=3"), std::string::npos);
  EXPECT_NE(s.find("N=2"), std::string::npos);
}

// ----------------------------------------------------------- placement

TEST(PlacementTest, InitialStateIsPrimariesOnly) {
  const Problem p = testutil::line3_problem();
  const ReplicaPlacement placement(p);
  EXPECT_TRUE(placement.is_replicator(0, 0));
  EXPECT_TRUE(placement.is_replicator(2, 1));
  EXPECT_FALSE(placement.is_replicator(1, 0));
  EXPECT_EQ(placement.replica_count(), 2u);
  EXPECT_EQ(placement.extra_replica_count(), 0u);
  EXPECT_EQ(placement.used_capacity(0), 2u);
  EXPECT_EQ(placement.used_capacity(1), 0u);
  EXPECT_NO_THROW(placement.check_invariants());
}

TEST(PlacementTest, InitialNnIsPrimaryDistance) {
  const Problem p = testutil::line3_problem();
  const ReplicaPlacement placement(p);
  EXPECT_EQ(placement.nn_distance(1, 0), 1u);  // S1 -> S0
  EXPECT_EQ(placement.nn_distance(2, 0), 3u);  // S2 -> S0
  EXPECT_EQ(placement.nn_distance(0, 1), 3u);  // S0 -> S2
  EXPECT_EQ(placement.nn_server(1, 0), 0u);
}

TEST(PlacementTest, AddReplicaUpdatesNnAndCapacity) {
  const Problem p = testutil::line3_problem();
  ReplicaPlacement placement(p);
  ASSERT_TRUE(placement.can_replicate(1, 0));
  placement.add_replica(1, 0);
  EXPECT_TRUE(placement.is_replicator(1, 0));
  EXPECT_EQ(placement.used_capacity(1), 2u);
  EXPECT_EQ(placement.nn_distance(1, 0), 0u);  // local now
  EXPECT_EQ(placement.nn_distance(2, 0), 2u);  // S2 -> S1 beats S2 -> S0
  EXPECT_EQ(placement.nn_server(2, 0), 1u);
  EXPECT_NO_THROW(placement.check_invariants());
}

TEST(PlacementTest, NnForNonAccessor) {
  const Problem p = testutil::line3_problem();
  ReplicaPlacement placement(p);
  // S0 never touches O0 (it is the primary) but S1 is not an accessor of...
  // actually S2 has no demand on O1; its NN must still be computable.
  EXPECT_EQ(placement.nn_distance(2, 1), 0u);  // S2 is O1's primary
  placement.add_replica(0, 1);
  EXPECT_EQ(placement.nn_distance(1, 1), 1u);  // S1 -> S0 replica
}

TEST(PlacementTest, RemoveReplicaRestoresState) {
  const Problem p = testutil::line3_problem();
  ReplicaPlacement placement(p);
  placement.add_replica(1, 0);
  placement.remove_replica(1, 0);
  EXPECT_FALSE(placement.is_replicator(1, 0));
  EXPECT_EQ(placement.used_capacity(1), 0u);
  EXPECT_EQ(placement.nn_distance(2, 0), 3u);  // back to the primary
  EXPECT_NO_THROW(placement.check_invariants());
}

TEST(PlacementTest, RemovePrimaryThrows) {
  const Problem p = testutil::line3_problem();
  ReplicaPlacement placement(p);
  EXPECT_THROW(placement.remove_replica(0, 0), std::logic_error);
}

TEST(PlacementTest, RemoveNonReplicatorThrows) {
  const Problem p = testutil::line3_problem();
  ReplicaPlacement placement(p);
  EXPECT_THROW(placement.remove_replica(1, 0), std::logic_error);
}

TEST(PlacementTest, CapacityGatesReplication) {
  const Problem p = testutil::line3_tight_problem();  // S1 capacity 3
  ReplicaPlacement placement(p);
  ASSERT_TRUE(placement.can_replicate(1, 0));   // size 2 <= 3
  placement.add_replica(1, 0);
  EXPECT_FALSE(placement.can_replicate(1, 1));  // size 3 > remaining 1
}

TEST(PlacementTest, DoubleReplicationForbidden) {
  const Problem p = testutil::line3_problem();
  ReplicaPlacement placement(p);
  placement.add_replica(1, 0);
  EXPECT_FALSE(placement.can_replicate(1, 0));
}

TEST(PlacementTest, NnConsistentUnderRandomChurn) {
  const Problem p = testutil::small_instance(21);
  ReplicaPlacement placement(p);
  common::Rng rng(77);
  std::vector<std::pair<ServerId, ObjectIndex>> added;
  for (int step = 0; step < 300; ++step) {
    const bool remove = !added.empty() && rng.chance(0.3);
    if (remove) {
      const std::size_t pick = rng.below(added.size());
      placement.remove_replica(added[pick].first, added[pick].second);
      added.erase(added.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const auto i = static_cast<ServerId>(rng.below(p.server_count()));
      const auto k = static_cast<ObjectIndex>(rng.below(p.object_count()));
      if (placement.can_replicate(i, k)) {
        placement.add_replica(i, k);
        added.emplace_back(i, k);
      }
    }
  }
  EXPECT_NO_THROW(placement.check_invariants());
}

// ------------------------------------------------------------- builder

TEST(BuilderTest, AchievesRequestedRwRatio) {
  for (double rw : {0.5, 0.75, 0.95}) {
    const Problem p = testutil::small_instance(31, 16, 60, 0.1, rw);
    const double reads = static_cast<double>(p.access.grand_total_reads());
    const double writes = static_cast<double>(p.access.grand_total_writes());
    EXPECT_NEAR(reads / (reads + writes), rw, 0.02) << "rw=" << rw;
  }
}

TEST(BuilderTest, ReadOnlyWorkload) {
  const Problem p = testutil::small_instance(32, 12, 40, 0.1, 1.0);
  EXPECT_EQ(p.access.grand_total_writes(), 0u);
}

TEST(BuilderTest, CapacityScalesWithFraction) {
  const Problem lo = testutil::small_instance(33, 16, 60, 0.02);
  const Problem hi = testutil::small_instance(33, 16, 60, 0.3);
  std::uint64_t lo_total = 0, hi_total = 0;
  for (auto c : lo.capacity) lo_total += c;
  for (auto c : hi.capacity) hi_total += c;
  // Headroom scales 15x but the fixed primary load dilutes the ratio.
  EXPECT_GT(hi_total, lo_total * 3);
}

TEST(BuilderTest, DeterministicInSeed) {
  const Problem a = testutil::small_instance(34);
  const Problem b = testutil::small_instance(34);
  EXPECT_EQ(a.primary, b.primary);
  EXPECT_EQ(a.capacity, b.capacity);
  EXPECT_EQ(a.object_units, b.object_units);
  EXPECT_EQ(a.access.grand_total_reads(), b.access.grand_total_reads());
  EXPECT_EQ(a.access.grand_total_writes(), b.access.grand_total_writes());
}

TEST(BuilderTest, DifferentSeedsDiffer) {
  const Problem a = testutil::small_instance(35);
  const Problem b = testutil::small_instance(36);
  EXPECT_NE(a.primary, b.primary);
}

TEST(BuilderTest, WritePopularityExponentConcentratesWrites) {
  drp::InstanceSpec spec;
  spec.servers = 16;
  spec.objects = 60;
  spec.seed = 37;
  spec.instance.rw_ratio = 0.6;
  spec.instance.write_popularity_exponent = 0.0;
  const Problem uniform = make_instance(spec);
  spec.instance.write_popularity_exponent = 1.2;
  const Problem skewed = make_instance(spec);
  // Under the skewed law, object 0 (the hottest rank) takes far more of the
  // update volume than under the uniform law.
  EXPECT_GT(skewed.access.total_writes(0), 3 * uniform.access.total_writes(0));
}

TEST(BuilderTest, InvalidConfigsThrow) {
  const Problem base = testutil::small_instance(38);
  trace::Workload wl;
  wl.object_ids = {0};
  wl.object_units = {1};
  wl.size_variance = {0.0};
  wl.reads = {{{0, 5}}};
  InstanceConfig cfg;
  EXPECT_THROW(build_problem(nullptr, wl, cfg), std::invalid_argument);
  cfg.rw_ratio = 0.0;
  EXPECT_THROW(build_problem(base.distances, wl, cfg), std::invalid_argument);
  cfg.rw_ratio = 1.5;
  EXPECT_THROW(build_problem(base.distances, wl, cfg), std::invalid_argument);
  cfg = InstanceConfig{};
  cfg.capacity_fraction = -0.1;
  EXPECT_THROW(build_problem(base.distances, wl, cfg), std::invalid_argument);
}

TEST(BuilderTest, WorkloadServerOutOfRangeThrows) {
  const Problem base = testutil::small_instance(39, 8, 20);
  trace::Workload wl;
  wl.object_ids = {0};
  wl.object_units = {1};
  wl.size_variance = {0.0};
  wl.reads = {{{200, 5}}};  // server 200 does not exist
  EXPECT_THROW(build_problem(base.distances, wl, InstanceConfig{}),
               std::invalid_argument);
}

// -------------------------------------------------------- placement IO

TEST(PlacementIo, RoundTripPreservesScheme) {
  const Problem p = testutil::small_instance(41, 16, 50);
  ReplicaPlacement original(p);
  common::Rng rng(3);
  for (int step = 0; step < 40; ++step) {
    const auto i = static_cast<ServerId>(rng.below(p.server_count()));
    const auto k = static_cast<ObjectIndex>(rng.below(p.object_count()));
    if (original.can_replicate(i, k)) original.add_replica(i, k);
  }
  std::stringstream ss;
  write_placement(ss, original);
  const ReplicaPlacement loaded = read_placement(ss, p);
  EXPECT_EQ(loaded.extra_replica_count(), original.extra_replica_count());
  for (ObjectIndex k = 0; k < p.object_count(); ++k) {
    ASSERT_EQ(loaded.replicators(k).size(), original.replicators(k).size());
    for (std::size_t r = 0; r < loaded.replicators(k).size(); ++r) {
      EXPECT_EQ(loaded.replicators(k)[r], original.replicators(k)[r]);
    }
  }
  EXPECT_NO_THROW(loaded.check_invariants());
}

TEST(PlacementIo, EmptySchemeRoundTrips) {
  const Problem p = testutil::line3_problem();
  std::stringstream ss;
  write_placement(ss, ReplicaPlacement(p));
  EXPECT_EQ(read_placement(ss, p).extra_replica_count(), 0u);
}

TEST(PlacementIo, CommentsAndBlankLinesIgnored) {
  const Problem p = testutil::line3_problem();
  std::stringstream ss("# header\n\n0: 1\n# trailing\n");
  const ReplicaPlacement loaded = read_placement(ss, p);
  EXPECT_TRUE(loaded.is_replicator(1, 0));
}

TEST(PlacementIo, MalformedInputsThrow) {
  const Problem p = testutil::line3_problem();
  const auto expect_throw = [&p](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_THROW(read_placement(ss, p), std::runtime_error) << text;
  };
  expect_throw("0 1\n");        // missing colon
  expect_throw("xyz: 1\n");     // bad object index
  expect_throw("9: 1\n");       // object out of range
  expect_throw("0: 99\n");      // server out of range
  expect_throw("0: junk\n");    // bad server token
  expect_throw("0: 1 1\n");     // duplicate replica
  expect_throw("0: 0\n");       // primary listed as extra replica
  expect_throw("0x: 1\n");      // trailing junk after the object index
  expect_throw("0.5: 1\n");     // fractional object index
  expect_throw("-0: 1\n");      // signed object index
  expect_throw("18446744073709551616: 1\n");  // object index overflows
  // A signed server id is refused, with its line.
  std::stringstream signed_server("# c\n0: +1\n");
  try {
    read_placement(signed_server, p);
    ADD_FAILURE() << "accepted a signed server id";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(PlacementIo, CapacityViolationRejected) {
  const Problem p = testutil::line3_tight_problem();  // S1 capacity 3
  std::stringstream ss("0: 1\n1: 1\n");  // O0 (2) + O1 (3) exceed 3
  EXPECT_THROW(read_placement(ss, p), std::runtime_error);
}

TEST(BuilderTest, MakeInstanceHonoursDimensions) {
  const Problem p = testutil::small_instance(40, 20, 55);
  EXPECT_EQ(p.server_count(), 20u);
  EXPECT_EQ(p.object_count(), 55u);
  EXPECT_NO_THROW(p.validate());
}

}  // namespace
