// Tests for the regional/hierarchical extension: k-medoids clustering and
// the regional mechanism (paper Section 7 future work).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/greedy.hpp"
#include "core/agt_ram.hpp"
#include "core/regional.hpp"
#include "core/regional_tiled.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"
#include "net/clustering.hpp"
#include "net/tiled_distances.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;

// ------------------------------------------------------------ clustering

TEST(Clustering, PartitionsAllNodes) {
  const drp::Problem p = testutil::small_instance(201, 30, 60);
  net::ClusteringConfig cfg;
  cfg.regions = 5;
  const net::Clustering c = net::cluster_servers(*p.distances, cfg);
  EXPECT_EQ(c.region_count(), 5u);
  EXPECT_EQ(c.assignment.size(), 30u);
  std::size_t covered = 0;
  for (std::uint32_t r = 0; r < 5; ++r) covered += c.members(r).size();
  EXPECT_EQ(covered, 30u);
}

TEST(Clustering, EveryNodeAssignedToNearestMedoid) {
  const drp::Problem p = testutil::small_instance(202, 24, 50);
  net::ClusteringConfig cfg;
  cfg.regions = 4;
  const net::Clustering c = net::cluster_servers(*p.distances, cfg);
  for (net::NodeId node = 0; node < 24; ++node) {
    const net::Cost own = (*p.distances)(node, c.medoids[c.assignment[node]]);
    for (std::uint32_t r = 0; r < c.region_count(); ++r) {
      EXPECT_LE(own, (*p.distances)(node, c.medoids[r]));
    }
  }
}

TEST(Clustering, MedoidBelongsToItsRegion) {
  const drp::Problem p = testutil::small_instance(203, 24, 50);
  net::ClusteringConfig cfg;
  cfg.regions = 3;
  const net::Clustering c = net::cluster_servers(*p.distances, cfg);
  for (std::uint32_t r = 0; r < c.region_count(); ++r) {
    EXPECT_EQ(c.assignment[c.medoids[r]], r);
  }
}

TEST(Clustering, DeterministicAndSeedSensitive) {
  const drp::Problem p = testutil::small_instance(204, 24, 50);
  net::ClusteringConfig cfg;
  cfg.regions = 4;
  const auto a = net::cluster_servers(*p.distances, cfg);
  const auto b = net::cluster_servers(*p.distances, cfg);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.medoids, b.medoids);
}

TEST(Clustering, ClampsRegionsToNodeCount) {
  const drp::Problem p = testutil::line3_problem();
  net::ClusteringConfig cfg;
  cfg.regions = 10;
  const auto c = net::cluster_servers(*p.distances, cfg);
  EXPECT_EQ(c.region_count(), 3u);
  EXPECT_EQ(c.total_within_distance, 0.0);  // every node is its own medoid
}

TEST(Clustering, ZeroRegionsThrows) {
  const drp::Problem p = testutil::line3_problem();
  net::ClusteringConfig cfg;
  cfg.regions = 0;
  EXPECT_THROW(net::cluster_servers(*p.distances, cfg), std::invalid_argument);
}

TEST(Clustering, MoreRegionsReduceWithinDistance) {
  const drp::Problem p = testutil::small_instance(205, 32, 50);
  net::ClusteringConfig few, many;
  few.regions = 2;
  many.regions = 8;
  EXPECT_LE(net::cluster_servers(*p.distances, many).total_within_distance,
            net::cluster_servers(*p.distances, few).total_within_distance);
}

// -------------------------------------------------------------- regional

TEST(Regional, ConvergesToFeasibleImprovingScheme) {
  const drp::Problem p = testutil::small_instance(211, 24, 80);
  const core::RegionalResult result = core::run_regional(p);
  EXPECT_NO_THROW(result.placement.check_invariants());
  EXPECT_LE(drp::CostModel::total_cost(result.placement),
            drp::CostModel::initial_cost(p));
  EXPECT_GT(result.replicas_placed(), 0u);
  EXPECT_EQ(result.replicas_placed(), result.placement.extra_replica_count());
}

TEST(Regional, QualityMatchesFlatMechanism) {
  // The regional decomposition converges towards the same
  // no-positive-candidate fixed point as the flat mechanism.
  const drp::Problem p = testutil::small_instance(212, 32, 100, 0.06);
  const double flat =
      drp::CostModel::total_cost(core::run_agt_ram(p).placement);
  const double regional =
      drp::CostModel::total_cost(core::run_regional(p).placement);
  EXPECT_NEAR(regional, flat, 0.05 * flat);
}

TEST(Regional, FewerEpochsThanFlatRounds) {
  // R regions allocate concurrently: the epoch count must undercut the
  // flat mechanism's round count by roughly the region parallelism.
  const drp::Problem p = testutil::small_instance(213, 32, 120, 0.06);
  const auto flat = core::run_agt_ram(p);
  core::RegionalConfig cfg;
  cfg.regions = 4;
  const auto regional = core::run_regional(p, cfg);
  EXPECT_LT(regional.epochs, flat.rounds.size());
}

TEST(Regional, FailedRegionAllocatesNothing) {
  const drp::Problem p = testutil::small_instance(214, 24, 80);
  core::RegionalConfig cfg;
  cfg.regions = 4;
  cfg.failed_regions = {1};
  const auto result = core::run_regional(p, cfg);
  EXPECT_TRUE(result.regions[1].failed);
  EXPECT_EQ(result.regions[1].replicas_placed, 0u);
  // No replica may sit on a failed region's member (beyond primaries).
  const auto members = result.clustering.members(1);
  const std::set<net::NodeId> failed_servers(members.begin(), members.end());
  for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    for (const drp::ServerId i : result.placement.replicators(k)) {
      if (i == p.primary[k]) continue;
      EXPECT_FALSE(failed_servers.contains(i));
    }
  }
}

TEST(Regional, FailedRegionThatDoesNotExistIsRefused) {
  // Region 7 of a four-region run names no region: every engine refuses it
  // instead of running as if nothing had failed.
  const drp::Problem p = testutil::small_instance(214, 24, 80);
  core::RegionalConfig cfg;
  cfg.regions = 4;
  cfg.failed_regions = {7};
  EXPECT_THROW(core::run_regional(p, cfg), std::invalid_argument);
  EXPECT_THROW(core::run_regional_cooperative(p, cfg), std::invalid_argument);
  EXPECT_THROW(core::run_hierarchical(p, cfg), std::invalid_argument);
  try {
    core::run_regional(p, cfg);
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find('7'), std::string::npos) << what;
    EXPECT_NE(what.find('4'), std::string::npos) << what;
  }
}

TEST(Regional, EnginesThatNeverCallAnObserverRefuseOne) {
  // Only run_regional reports its rounds; the cooperative and hierarchical
  // engines refuse an observer instead of silently never calling it.
  const drp::Problem p = testutil::small_instance(214, 24, 80);
  core::MechanismObserver observer;
  core::RegionalConfig cfg;
  cfg.observer = &observer;
  EXPECT_THROW(core::run_regional_cooperative(p, cfg), std::invalid_argument);
  EXPECT_THROW(core::run_hierarchical(p, cfg), std::invalid_argument);
  EXPECT_NO_THROW(core::run_regional(p, cfg));
}

TEST(Regional, FailureDegradesGracefully) {
  // Killing one of four regions must not kill the system: the remaining
  // regions keep most of the healthy run's savings.
  const drp::Problem p = testutil::small_instance(215, 32, 120, 0.06);
  const double initial = drp::CostModel::initial_cost(p);
  core::RegionalConfig healthy;
  healthy.regions = 4;
  core::RegionalConfig degraded = healthy;
  degraded.failed_regions = {0};
  const double healthy_savings =
      (initial -
       drp::CostModel::total_cost(core::run_regional(p, healthy).placement)) /
      initial;
  const double degraded_savings =
      (initial -
       drp::CostModel::total_cost(core::run_regional(p, degraded).placement)) /
      initial;
  EXPECT_GT(degraded_savings, 0.0);
  EXPECT_LE(degraded_savings, healthy_savings + 1e-9);
  EXPECT_GT(degraded_savings, healthy_savings * 0.4);
}

TEST(Regional, MaxEpochsCapRespected) {
  const drp::Problem p = testutil::small_instance(216, 24, 80);
  core::RegionalConfig cfg;
  cfg.max_epochs = 3;
  const auto result = core::run_regional(p, cfg);
  EXPECT_LE(result.epochs, 3u);
  EXPECT_LE(result.replicas_placed(), 3u * cfg.regions);
}

// ---------------------------------------------------- hierarchical (2-level)

TEST(Hierarchical, AllocationEquivalentToFlatMechanism) {
  // The argmax of regional argmaxes is the global argmax, so the two-level
  // mechanism must reproduce the flat allocation sequence exactly.
  const drp::Problem p = testutil::small_instance(218, 32, 120, 0.06);
  const auto flat = core::run_agt_ram(p);
  core::RegionalConfig cfg;
  cfg.regions = 4;
  const auto hier = core::run_hierarchical(p, cfg);
  ASSERT_EQ(flat.rounds.size(), hier.rounds.size());
  for (std::size_t r = 0; r < flat.rounds.size(); ++r) {
    EXPECT_EQ(flat.rounds[r].winner, hier.rounds[r].winner) << "round " << r;
    EXPECT_EQ(flat.rounds[r].object, hier.rounds[r].object) << "round " << r;
  }
}

TEST(Hierarchical, ChargesNeverExceedFlatSecondPrice) {
  // The flat runner-up can hide inside the winner's own region, so the
  // top-level second price is weakly cheaper, round by round.
  const drp::Problem p = testutil::small_instance(219, 32, 120, 0.06);
  const auto flat = core::run_agt_ram(p);
  core::RegionalConfig cfg;
  cfg.regions = 4;
  const auto hier = core::run_hierarchical(p, cfg);
  ASSERT_EQ(flat.rounds.size(), hier.rounds.size());
  for (std::size_t r = 0; r < flat.rounds.size(); ++r) {
    EXPECT_LE(hier.rounds[r].payment, flat.rounds[r].payment + 1e-9);
  }
}

TEST(Hierarchical, TopCentreComparesAtMostRegionsPerRound) {
  const drp::Problem p = testutil::small_instance(220, 24, 80);
  core::RegionalConfig cfg;
  cfg.regions = 4;
  const auto hier = core::run_hierarchical(p, cfg);
  EXPECT_LE(hier.top_level_reports, hier.rounds.size() * 4 + 4);
  EXPECT_GT(hier.top_level_reports, 0u);
}

TEST(Hierarchical, FailedRegionsNeverWin) {
  const drp::Problem p = testutil::small_instance(221, 24, 80);
  core::RegionalConfig cfg;
  cfg.regions = 4;
  cfg.failed_regions = {0};
  const auto hier = core::run_hierarchical(p, cfg);
  for (const auto& round : hier.rounds) {
    EXPECT_NE(hier.clustering.assignment[round.winner], 0u);
  }
  EXPECT_NO_THROW(hier.placement.check_invariants());
}

struct PinnedRound {
  drp::ServerId winner;
  drp::ObjectIndex object;
  double payment;
};

void expect_hierarchical_outputs(const core::HierarchicalResult& hier,
                                 const std::vector<PinnedRound>& rounds,
                                 double total_charges,
                                 std::uint64_t top_level_reports) {
  ASSERT_EQ(hier.rounds.size(), rounds.size());
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    EXPECT_EQ(hier.rounds[r].winner, rounds[r].winner) << "round " << r;
    EXPECT_EQ(hier.rounds[r].object, rounds[r].object) << "round " << r;
    EXPECT_EQ(hier.rounds[r].payment, rounds[r].payment) << "round " << r;
  }
  EXPECT_EQ(hier.total_charges, total_charges);
  EXPECT_EQ(hier.top_level_reports, top_level_reports);
}

// Every output of the two-level mechanism, bitwise: each round's winner,
// object and top-level payment, the summed charges and the number of
// champions the top centre compared.  The values were recorded from the
// engine's own region-by-region round loop, before it ran on the flat one.
TEST(Hierarchical, OutputsPinned) {
  core::RegionalConfig cfg;
  cfg.regions = 4;
  const drp::Problem intact = testutil::small_instance(220, 24, 80);
  expect_hierarchical_outputs(
      core::run_hierarchical(intact, cfg),
      {{15, 4, 0x1.108p+9}, {15, 2, 0x1.108p+9}, {15, 6, 0x1.108p+9},
       {14, 0, 0x1.36p+7},  {14, 4, 0x1.4p+6},   {14, 1, 0x1.4p+6},
       {13, 0, 0x1.4p+4},   {6, 0, 0x1.4p+4},    {21, 1, 0x1.4p+4},
       {14, 3, 0x1.8p+2},   {6, 1, 0x1.8p+2},    {19, 0, 0x0p+0}},
      0x1.f98p+10, 33);

  cfg.failed_regions = {1};
  const drp::Problem failed = testutil::small_instance(221, 24, 80);
  expect_hierarchical_outputs(
      core::run_hierarchical(failed, cfg),
      {{9, 3, 0x1.9ap+11},  {8, 2, 0x1.1c6p+11}, {8, 4, 0x1.1c6p+11},
       {19, 4, 0x1.0ep+11}, {8, 0, 0x1.878p+10}, {7, 3, 0x1.77p+10},
       {8, 3, 0x1.77p+10},  {7, 2, 0x1.77p+10},  {8, 5, 0x1.77p+10},
       {19, 3, 0x1.578p+10}, {9, 0, 0x1.554p+10}, {19, 2, 0x1.44p+10},
       {9, 1, 0x1.35p+10},  {19, 0, 0x1.318p+10}, {9, 4, 0x1.248p+10},
       {20, 4, 0x1.18p+10}, {7, 0, 0x1.18p+10},  {19, 1, 0x1.05p+10},
       {7, 1, 0x1.5ep+9},   {5, 3, 0x1.5ep+9},   {8, 6, 0x1.5ep+9},
       {20, 0, 0x1.5ep+9},  {7, 4, 0x1.5ep+9},   {9, 6, 0x1.5ep+9},
       {20, 1, 0x1.2e8p+9}, {20, 2, 0x1.2e8p+9}, {20, 3, 0x1.2e8p+9},
       {9, 8, 0x1.13p+9},   {9, 5, 0x1.13p+9},   {7, 6, 0x1.a4p+8},
       {19, 6, 0x1.6ep+8},  {5, 0, 0x1.0ep+7},   {5, 1, 0x1.0ep+7},
       {8, 9, 0x1.0ep+7},   {11, 0, 0x1.0ep+7},  {20, 6, 0x1.0ep+7},
       {11, 4, 0x1.0ep+7},  {11, 1, 0x1.0ep+7},  {5, 11, 0x1.0ep+7},
       {11, 3, 0x1.0ep+7},  {5, 5, 0x1.0ep+7},   {13, 0, 0x1.0ep+7},
       {13, 1, 0x1.0ep+7},  {15, 0, 0x1.9p+6},   {6, 0, 0x1.8p+6},
       {5, 8, 0x1.8p+6},    {20, 5, 0x1.8p+6},   {15, 1, 0x1p+6},
       {7, 9, 0x1.68p+5},   {5, 6, 0x1.68p+5},   {8, 7, 0x1.68p+5},
       {6, 1, 0x1.6p+4},    {0, 0, 0x1.6p+4},    {9, 7, 0x1p+3},
       {2, 0, 0x1.8p+2},    {8, 26, 0x0p+0},     {0, 1, 0x0p+0},
       {5, 7, 0x0p+0}},
      0x1.2e1ap+15, 167);
}

// ------------------------------------ hierarchy on the dirty-set path

drp::Problem dispersed_instance(std::uint64_t seed, std::uint32_t servers,
                                std::uint32_t objects) {
  drp::InstanceSpec spec;
  spec.servers = servers;
  spec.objects = objects;
  spec.seed = seed;
  spec.demand = drp::DemandModel::Dispersed;
  spec.readers_per_object = 6.0;
  spec.instance.capacity_fraction = 0.02;
  spec.instance.rw_ratio = 0.9;
  return drp::make_instance(spec);
}

std::uint64_t reports_polled_counter() {
  for (const obs::CounterSnapshot& c : obs::Registry::instance().counters()) {
    if (c.name == "regional.reports_polled") return c.value;
  }
  return 0;
}

/// FNV-1a over each round's winner, object and payment bits.
std::uint64_t rounds_digest(const std::vector<core::RoundRecord>& rounds) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const core::RoundRecord& r : rounds) {
    std::uint64_t payment_bits = 0;
    std::memcpy(&payment_bits, &r.payment, sizeof payment_bits);
    mix(r.winner);
    mix(r.object);
    mix(payment_bits);
  }
  return h;
}

// Every output of the two-level mechanism on two dispersed instances, where
// the hierarchy runs on the dirty-set loop: the round count, a digest of
// every round's winner, object and payment bits, the summed charges, the
// champion count and the reports the regional centres polled.  Recorded
// while the hierarchy still pinned ReportMode::Naive; the name recalls the
// retired Auto policy, which picked the dirty-set loop here.
TEST(Hierarchical, DispersedOutputsPinnedUnderAuto) {
  struct Pinned {
    std::uint64_t seed;
    std::vector<std::uint32_t> failed_regions;
    std::size_t rounds;
    std::uint64_t digest;
    double total_charges;
    std::uint64_t top_level_reports;
    std::uint64_t reports_polled;
  };
  const Pinned pins[] = {
      {241, {}, 349, 0x73311dd9110969b5ull, 0x1.41f7cp+18, 1375, 17901},
      {242, {1}, 339, 0x88f201fc56f1a8efull, 0x1.6ca3cp+18, 1007, 16157},
  };
  for (const Pinned& pin : pins) {
    SCOPED_TRACE("seed " + std::to_string(pin.seed));
    const drp::Problem p = dispersed_instance(pin.seed, 64, 320);
    core::RegionalConfig cfg;
    cfg.regions = 4;
    cfg.failed_regions = pin.failed_regions;
    const std::uint64_t polled_before = reports_polled_counter();
    const auto hier = core::run_hierarchical(p, cfg);
    EXPECT_EQ(reports_polled_counter() - polled_before, pin.reports_polled);
    EXPECT_EQ(hier.rounds.size(), pin.rounds);
    EXPECT_EQ(rounds_digest(hier.rounds), pin.digest);
    EXPECT_EQ(hier.total_charges, pin.total_charges);  // bitwise
    EXPECT_EQ(hier.top_level_reports, pin.top_level_reports);
  }
}

/// The two-level rule of DESIGN.md §11 written out on its own: each region
/// nominates its first best report of the round, and the top level charges
/// the winner the best champion of the other regions (0 when alone).
class ChampionReference final : public core::MechanismObserver {
 public:
  explicit ChampionReference(const net::Clustering& clustering)
      : clustering_(clustering), champions_(clustering.region_count()) {}

  void on_round_begin(std::size_t) override {
    std::fill(champions_.begin(), champions_.end(), core::Report{});
  }
  void on_report(drp::ServerId agent, const core::Report& report,
                 bool) override {
    ++reports_polled;
    core::Report& champion = champions_[clustering_.assignment[agent]];
    if (report.has_candidate &&
        (!champion.has_candidate ||
         report.claimed_value > champion.claimed_value)) {
      champion = report;
    }
  }
  void on_allocation(drp::ServerId winner, drp::ObjectIndex object,
                     double) override {
    const std::uint32_t home = clustering_.assignment[winner];
    double second = 0.0;
    for (std::uint32_t r = 0; r < champions_.size(); ++r) {
      if (!champions_[r].has_candidate) continue;
      ++top_level_reports;
      if (r != home) second = std::max(second, champions_[r].claimed_value);
    }
    rounds.push_back(core::RoundRecord{winner, object,
                                       champions_[home].claimed_value,
                                       champions_[home].true_value, second});
    total_charges += second;
  }

  std::vector<core::RoundRecord> rounds;
  double total_charges = 0.0;
  std::uint64_t top_level_reports = 0;
  std::uint64_t reports_polled = 0;

 private:
  const net::Clustering& clustering_;
  std::vector<core::Report> champions_;
};

TEST(Hierarchical, AutoMatchesNaiveChampionReference) {
  // Randomized differential: the hierarchy on the default (dirty-set) path
  // against a reference that runs the naive sweep over the live regions'
  // members under ChampionReference, on every instance of the family.
  for (std::uint64_t seed = 1000; seed < 1070; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::uint32_t servers = 48 + 8 * static_cast<std::uint32_t>(seed % 3);
    const drp::Problem p = dispersed_instance(seed, servers, 15 * servers);
    core::RegionalConfig cfg;
    cfg.regions = 2 + static_cast<std::uint32_t>(seed % 4);
    if (seed % 3 == 0) {
      cfg.failed_regions = {static_cast<std::uint32_t>(seed % cfg.regions)};
    }

    const net::Clustering clustering = core::cluster_regions(p, cfg);
    std::vector<drp::ServerId> participants;
    for (drp::ServerId i = 0; i < p.server_count(); ++i) {
      if (cfg.failed_regions.empty() ||
          clustering.assignment[i] != cfg.failed_regions[0]) {
        participants.push_back(i);
      }
    }
    ChampionReference reference(clustering);
    core::AgtRamConfig naive;
    naive.report_mode = core::ReportMode::Naive;
    naive.observer = &reference;
    const core::MechanismResult flat = core::run_agt_ram_from(
        p, naive, drp::ReplicaPlacement(p), &participants);

    const std::uint64_t polled_before = reports_polled_counter();
    const auto hier = core::run_hierarchical(p, cfg);
    EXPECT_EQ(reports_polled_counter() - polled_before,
              reference.reports_polled);
    ASSERT_EQ(hier.rounds.size(), reference.rounds.size());
    for (std::size_t r = 0; r < hier.rounds.size(); ++r) {
      EXPECT_EQ(hier.rounds[r].winner, reference.rounds[r].winner);
      EXPECT_EQ(hier.rounds[r].object, reference.rounds[r].object);
      EXPECT_EQ(hier.rounds[r].claimed_value,
                reference.rounds[r].claimed_value);
      EXPECT_EQ(hier.rounds[r].true_value, reference.rounds[r].true_value);
      EXPECT_EQ(hier.rounds[r].payment, reference.rounds[r].payment);
    }
    EXPECT_EQ(hier.total_charges, reference.total_charges);  // bitwise
    EXPECT_EQ(hier.top_level_reports, reference.top_level_reports);
    EXPECT_EQ(rounds_digest(hier.rounds), rounds_digest(reference.rounds));
    EXPECT_EQ(flat.rounds.size(), hier.rounds.size());
  }
}

TEST(Regional, RegionStatsAreConsistent) {
  const drp::Problem p = testutil::small_instance(217, 24, 80);
  core::RegionalConfig cfg;
  cfg.regions = 3;
  const auto result = core::run_regional(p, cfg);
  std::uint32_t members = 0;
  for (const auto& region : result.regions) {
    members += region.member_count;
    EXPECT_GE(region.charges, 0.0);
    EXPECT_LT(region.centre, p.server_count());
  }
  EXPECT_EQ(members, p.server_count());
}

// ------------------------------------------------------- sampled clustering

drp::SparseInstance sparse_instance(std::uint64_t seed, std::uint32_t servers,
                                    std::uint32_t objects,
                                    double capacity = 0.05) {
  drp::InstanceSpec spec;
  spec.servers = servers;
  spec.objects = objects;
  spec.seed = seed;
  spec.instance.capacity_fraction = capacity;
  return drp::make_sparse_instance(spec);
}

TEST(SampledClustering, PartitionsAllNodesAndOwnsMedoids) {
  const drp::SparseInstance inst = sparse_instance(240, 200, 100);
  net::SampledClusteringConfig cfg;
  cfg.regions = 8;
  cfg.seed = 3;
  const net::Clustering c = net::cluster_servers_sampled(inst.graph, cfg);
  EXPECT_EQ(c.region_count(), 8u);
  ASSERT_EQ(c.assignment.size(), 200u);
  std::size_t covered = 0;
  for (std::uint32_t r = 0; r < c.region_count(); ++r) {
    covered += c.members(r).size();
    EXPECT_EQ(c.assignment[c.medoids[r]], r);  // medoid sits in its region
  }
  EXPECT_EQ(covered, 200u);
}

TEST(SampledClustering, Deterministic) {
  const drp::SparseInstance inst = sparse_instance(241, 160, 80);
  net::SampledClusteringConfig cfg;
  cfg.regions = 6;
  cfg.seed = 7;
  const auto a = net::cluster_servers_sampled(inst.graph, cfg);
  const auto b = net::cluster_servers_sampled(inst.graph, cfg);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.medoids, b.medoids);
}

TEST(SampledClustering, MemberCapRespectedAndClampedUp) {
  const drp::SparseInstance inst = sparse_instance(242, 200, 100);
  net::SampledClusteringConfig cfg;
  cfg.regions = 8;
  cfg.max_members = 30;  // above ceil(200/8) = 25: honoured as-is
  auto c = net::cluster_servers_sampled(inst.graph, cfg);
  for (std::uint32_t r = 0; r < c.region_count(); ++r) {
    EXPECT_LE(c.members(r).size(), 30u);
  }
  cfg.max_members = 10;  // infeasible: clamped up to ceil(n/k)
  c = net::cluster_servers_sampled(inst.graph, cfg);
  for (std::uint32_t r = 0; r < c.region_count(); ++r) {
    EXPECT_LE(c.members(r).size(), 25u);
  }
}

TEST(SampledClustering, ClampsRegionsToNodeCount) {
  const drp::SparseInstance inst = sparse_instance(243, 12, 30);
  net::SampledClusteringConfig cfg;
  cfg.regions = 20;
  const auto c = net::cluster_servers_sampled(inst.graph, cfg);
  EXPECT_EQ(c.region_count(), 12u);
}

TEST(SampledClustering, CentreStripsAreExactAfterEverySweep) {
  // A sweep recomputes only the strips of medoids that moved; every strip
  // handed out must still be the full-graph Dijkstra from its medoid.  On
  // this power-law graph both sweep counts move some medoids but not all.
  net::TopologyConfig topology;
  topology.kind = net::TopologyKind::PowerLaw;
  topology.nodes = 240;
  topology.seed = 1;
  const net::Graph graph = net::generate_topology(topology);
  net::SampledClusteringConfig cfg;
  cfg.regions = 8;
  cfg.seed = 5;
  std::vector<net::NodeId> unrefined;
  for (const std::uint32_t sweeps : {0u, 1u, 3u}) {
    SCOPED_TRACE(sweeps);
    cfg.refine_iterations = sweeps;
    const net::Clustering c = net::cluster_servers_sampled(graph, cfg);
    ASSERT_NE(c.centre_strips, nullptr);
    ASSERT_EQ(c.centre_strips->size(), c.region_count());
    for (std::uint32_t r = 0; r < c.region_count(); ++r) {
      EXPECT_EQ((*c.centre_strips)[r], net::dijkstra(graph, c.medoids[r]))
          << "region " << r;
    }
    if (sweeps == 0) {
      unrefined = c.medoids;
    } else {
      EXPECT_NE(c.medoids, unrefined);  // refinement moved some medoid
    }
  }
}

TEST(SampledClustering, ZeroRegionsThrows) {
  const drp::SparseInstance inst = sparse_instance(244, 8, 20);
  net::SampledClusteringConfig cfg;
  cfg.regions = 0;
  EXPECT_THROW(net::cluster_servers_sampled(inst.graph, cfg),
               std::invalid_argument);
}

// --------------------------------------------------------- tiled distances

TEST(TiledDistancesTest, EstimateMatchesBuiltBytes) {
  const drp::SparseInstance inst = sparse_instance(250, 150, 80);
  net::SampledClusteringConfig cfg;
  cfg.regions = 5;
  const auto c = net::cluster_servers_sampled(inst.graph, cfg);
  const auto tiles = net::TiledDistances::build(inst.graph, c);
  EXPECT_EQ(net::TiledDistances::estimate_bytes(c), tiles.bytes());
  EXPECT_GT(tiles.bytes(), 0u);
}

TEST(TiledDistancesTest, BlocksNeverUndershootAndGatewaysExact) {
  const drp::SparseInstance inst = sparse_instance(251, 120, 60);
  const net::DistanceMatrix exact = net::DistanceMatrix::compute(inst.graph);
  net::SampledClusteringConfig cfg;
  cfg.regions = 4;
  const auto c = net::cluster_servers_sampled(inst.graph, cfg);
  const auto tiles = net::TiledDistances::build(inst.graph, c);
  for (std::uint32_t r = 0; r < c.region_count(); ++r) {
    const auto& members = tiles.members(r);
    const net::DistanceMatrix& block = *tiles.block(r);
    const std::size_t n = members.size();
    ASSERT_EQ(block.node_count(), n + c.region_count());
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        // member<->member is a real path length: never below the metric.
        EXPECT_GE(block(a, b), exact(members[a], members[b]));
      }
      for (std::uint32_t q = 0; q < c.region_count(); ++q) {
        // member<->gateway comes from a full-graph Dijkstra strip: exact.
        EXPECT_EQ(block(a, n + q), exact(members[a], c.medoids[q]));
        EXPECT_EQ(tiles.centre_strip(q)[members[a]],
                  exact(members[a], c.medoids[q]));
      }
    }
    for (std::uint32_t q = 0; q < c.region_count(); ++q) {
      for (std::uint32_t s = 0; s < c.region_count(); ++s) {
        EXPECT_EQ(block(n + q, n + s), exact(c.medoids[q], c.medoids[s]));
      }
    }
  }
}

TEST(TiledDistancesTest, RefusesClusteringWithoutMatchingStrips) {
  const drp::SparseInstance inst = sparse_instance(253, 80, 40);
  net::SampledClusteringConfig cfg;
  cfg.regions = 4;
  net::Clustering c = net::cluster_servers_sampled(inst.graph, cfg);
  const net::Graph other(inst.graph.node_count() + 1);
  EXPECT_THROW(net::TiledDistances::build(other, c), std::invalid_argument);
  c.centre_strips.reset();
  EXPECT_THROW(net::TiledDistances::build(inst.graph, c),
               std::invalid_argument);
  // The dense clustering computes no strips, so it cannot be tiled.
  const net::DistanceMatrix exact = net::DistanceMatrix::compute(inst.graph);
  net::ClusteringConfig dense;
  dense.regions = 4;
  EXPECT_THROW(
      net::TiledDistances::build(inst.graph,
                                 net::cluster_servers(exact, dense)),
      std::invalid_argument);
}

TEST(TiledDistancesTest, SingleRegionBlockIsExactClosure) {
  // With one region the subgraph is the whole graph, so the block's
  // member<->member entries equal the dense closure bit for bit.
  const drp::SparseInstance inst = sparse_instance(252, 60, 40);
  const net::DistanceMatrix exact = net::DistanceMatrix::compute(inst.graph);
  net::SampledClusteringConfig cfg;
  cfg.regions = 1;
  const auto c = net::cluster_servers_sampled(inst.graph, cfg);
  const auto tiles = net::TiledDistances::build(inst.graph, c);
  const net::DistanceMatrix& block = *tiles.block(0);
  for (net::NodeId a = 0; a < 60; ++a) {
    for (net::NodeId b = 0; b < 60; ++b) {
      EXPECT_EQ(block(a, b), exact(a, b));
    }
  }
}

// ------------------------------------------------------------ tiled engine

TEST(TiledRegional, ShardedByteIdenticalToSerial) {
  const drp::SparseInstance inst = sparse_instance(260, 300, 600);
  core::TiledRegionalConfig serial;
  serial.regions = 6;
  serial.execution = core::RegionalExecution::Serial;
  core::TiledRegionalConfig sharded = serial;
  sharded.execution = core::RegionalExecution::Sharded;
  const core::TiledPartition partition =
      core::make_tiled_partition(inst, serial);
  ASSERT_TRUE(partition.within_budget);
  const auto a = core::run_regional_tiled(inst, partition, serial);
  const auto b = core::run_regional_tiled(inst, partition, sharded);
  EXPECT_EQ(a.allocations, b.allocations);
  EXPECT_EQ(a.initial_cost, b.initial_cost);  // bitwise
  EXPECT_EQ(a.final_cost, b.final_cost);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t r = 0; r < a.shards.size(); ++r) {
    EXPECT_EQ(a.shards[r].rounds, b.shards[r].rounds);
    EXPECT_EQ(a.shards[r].replicas_placed, b.shards[r].replicas_placed);
    EXPECT_EQ(a.shards[r].charges, b.shards[r].charges);
    EXPECT_EQ(a.shards[r].final_cost, b.shards[r].final_cost);
    EXPECT_EQ(a.shards[r].reports_computed, b.shards[r].reports_computed);
  }
  EXPECT_GT(a.replicas_placed(), 0u);
  EXPECT_GT(a.savings(), 0.0);
}

TEST(TiledRegional, CooperativeShardedByteIdenticalToSerial) {
  const drp::SparseInstance inst = sparse_instance(261, 240, 480);
  core::TiledRegionalConfig serial;
  serial.regions = 5;
  serial.cooperative = true;
  serial.execution = core::RegionalExecution::Serial;
  core::TiledRegionalConfig sharded = serial;
  sharded.execution = core::RegionalExecution::Sharded;
  const core::TiledPartition partition =
      core::make_tiled_partition(inst, serial);
  ASSERT_TRUE(partition.within_budget);
  const auto a = core::run_regional_tiled(inst, partition, serial);
  const auto b = core::run_regional_tiled(inst, partition, sharded);
  EXPECT_EQ(a.allocations, b.allocations);
  EXPECT_EQ(a.final_cost, b.final_cost);
  EXPECT_GT(a.replicas_placed(), 0u);
}

TEST(TiledRegional, BudgetGuardRefusesWithoutMaterialising) {
  const drp::SparseInstance inst = sparse_instance(262, 200, 200);
  core::TiledRegionalConfig cfg;
  cfg.regions = 4;
  cfg.distance_budget_bytes = 1;  // nothing fits
  const core::TiledPartition partition = core::make_tiled_partition(inst, cfg);
  EXPECT_FALSE(partition.within_budget);
  EXPECT_GT(partition.tile_bytes, 1u);
  EXPECT_EQ(partition.tiles.region_count(), 0u);  // nothing materialised
  const auto result = core::run_regional_tiled(inst, partition, cfg);
  EXPECT_FALSE(result.within_budget);
  EXPECT_TRUE(result.shards.empty());
  EXPECT_TRUE(result.allocations.empty());
}

TEST(TiledRegional, SingleRegionMatchesFlatMechanism) {
  // R=1 degenerates to the flat auction over exact distances: same replica
  // set, same costs, same clearing volume — bit for bit.
  drp::InstanceSpec spec;
  spec.servers = 64;
  spec.objects = 160;
  spec.seed = 263;
  spec.instance.capacity_fraction = 0.05;
  const drp::Problem dense = drp::make_instance(spec);
  const drp::SparseInstance sparse = drp::make_sparse_instance(spec);
  const auto flat = core::run_agt_ram(dense);

  core::TiledRegionalConfig cfg;
  cfg.regions = 1;
  const auto tiled = core::run_regional_tiled(sparse, cfg);
  ASSERT_TRUE(tiled.within_budget);

  std::vector<std::pair<drp::ServerId, drp::ObjectIndex>> flat_allocs;
  for (drp::ObjectIndex k = 0; k < dense.object_count(); ++k) {
    for (const drp::ServerId s : flat.placement.replicators(k)) {
      if (s != dense.primary[k]) flat_allocs.emplace_back(s, k);
    }
  }
  std::sort(flat_allocs.begin(), flat_allocs.end());
  EXPECT_EQ(tiled.allocations, flat_allocs);
  EXPECT_EQ(tiled.initial_cost, drp::CostModel::initial_cost(dense));
  EXPECT_EQ(tiled.final_cost, drp::CostModel::total_cost(flat.placement));
  ASSERT_EQ(tiled.shards.size(), 1u);
  EXPECT_EQ(tiled.shards[0].charges, flat.total_payments());
  EXPECT_EQ(tiled.shards[0].rounds, flat.rounds.size());
}

TEST(TiledRegional, CooperativeSingleRegionIsGreedy) {
  // At R=1 the cooperative shard is the whole problem, and the coalition is
  // Greedy under the member mask: same replica set, same cost, bit for bit.
  drp::InstanceSpec spec;
  spec.servers = 64;
  spec.objects = 160;
  spec.seed = 263;
  spec.instance.capacity_fraction = 0.05;
  const drp::Problem dense = drp::make_instance(spec);
  const drp::SparseInstance sparse = drp::make_sparse_instance(spec);
  const drp::ReplicaPlacement greedy = baselines::run_greedy(dense);

  core::TiledRegionalConfig cfg;
  cfg.regions = 1;
  cfg.cooperative = true;
  const auto tiled = core::run_regional_tiled(sparse, cfg);
  ASSERT_TRUE(tiled.within_budget);

  std::vector<std::pair<drp::ServerId, drp::ObjectIndex>> greedy_allocs;
  for (drp::ObjectIndex k = 0; k < dense.object_count(); ++k) {
    for (const drp::ServerId s : greedy.replicators(k)) {
      if (s != dense.primary[k]) greedy_allocs.emplace_back(s, k);
    }
  }
  std::sort(greedy_allocs.begin(), greedy_allocs.end());
  EXPECT_EQ(tiled.allocations, greedy_allocs);
  EXPECT_EQ(tiled.final_cost, drp::CostModel::total_cost(greedy));
  ASSERT_EQ(tiled.shards.size(), 1u);
  EXPECT_EQ(tiled.shards[0].replicas_placed, greedy_allocs.size());
}

TEST(TiledRegional, ShardStatsAreConsistent) {
  const drp::SparseInstance inst = sparse_instance(264, 200, 400);
  core::TiledRegionalConfig cfg;
  cfg.regions = 4;
  const auto result = core::run_regional_tiled(inst, cfg);
  ASSERT_TRUE(result.within_budget);
  std::uint32_t members = 0;
  std::size_t replicas = 0;
  for (const auto& shard : result.shards) {
    members += shard.member_count;
    replicas += shard.replicas_placed;
    EXPECT_LE(shard.final_cost, shard.initial_cost);
    EXPECT_GT(shard.reports_computed, 0u);
  }
  EXPECT_EQ(members, inst.base.server_count());
  EXPECT_EQ(replicas, result.replicas_placed());
}

}  // namespace
