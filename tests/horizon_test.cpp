// Tests for the multi-day horizon driver, the online engine it adapts with,
// and graph I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <variant>
#include <vector>

#include "core/agt_ram.hpp"
#include "core/online.hpp"
#include "drp/cost_model.hpp"
#include "net/graph_io.hpp"
#include "net/topology.hpp"
#include "runtime/event_sim.hpp"
#include "sim/horizon.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;
using sim::HorizonConfig;
using sim::HorizonResult;
using sim::HorizonSeries;

HorizonConfig horizon_config(std::uint32_t days = 5, std::uint64_t seed = 99) {
  HorizonConfig cfg;
  cfg.days = days;
  cfg.drift = 0.25;
  cfg.seed = seed;
  return cfg;
}

std::vector<const HorizonSeries*> all_series(const HorizonResult& result) {
  return {&result.stale, &result.rebuild, &result.adapt};
}

TEST(Horizon, ProducesOneRecordPerDay) {
  const drp::Problem p = testutil::small_instance(701, 20, 60);
  const HorizonResult result = sim::run_horizon(p, horizon_config());
  for (const HorizonSeries* series : all_series(result)) {
    ASSERT_EQ(series->days.size(), 5u);
    for (std::uint32_t d = 0; d < 5; ++d) {
      EXPECT_EQ(series->days[d].day, d);
    }
    EXPECT_EQ(series->days[0].demand_moved, 0.0);
    EXPECT_GT(series->days[1].demand_moved, 0.0);
  }
}

TEST(Horizon, StalePolicyNeverChurns) {
  const drp::Problem p = testutil::small_instance(702, 20, 60);
  const HorizonResult result = sim::run_horizon(p, horizon_config());
  EXPECT_EQ(result.stale.total_churn_units, 0u);
  for (const sim::DayRecord& day : result.stale.days) {
    EXPECT_EQ(day.replicas, result.stale.days[0].replicas);
  }
}

TEST(Horizon, AdaptBeatsStaleOnMeanSavings) {
  const drp::Problem p = testutil::small_instance(703, 24, 80, 0.06);
  const HorizonResult result = sim::run_horizon(p, horizon_config(6));
  EXPECT_GT(result.adapt.mean_savings, result.stale.mean_savings);
}

TEST(Horizon, AdaptChurnsLessThanRebuild) {
  const drp::Problem p = testutil::small_instance(704, 24, 80, 0.06);
  const HorizonResult result = sim::run_horizon(p, horizon_config(6));
  EXPECT_LT(result.adapt.total_churn_units, result.rebuild.total_churn_units);
  // ... while staying within a whisker of rebuild quality.
  EXPECT_GT(result.adapt.mean_savings, result.rebuild.mean_savings * 0.93);
}

TEST(Horizon, AdaptTracksRebuildAcrossSeeds) {
  // The single-seed bound above is seed-sensitive (per-seed Adapt/Rebuild
  // ratios spread over a few points); the mean over ten timelines is not.
  const drp::Problem p = testutil::small_instance(704, 24, 80, 0.06);
  double ratio_sum = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    const HorizonResult result = sim::run_horizon(p, horizon_config(6, seed));
    EXPECT_GT(result.adapt.mean_savings, result.stale.mean_savings);
    EXPECT_LT(result.adapt.total_churn_units,
              result.rebuild.total_churn_units);
    ratio_sum += result.adapt.mean_savings / result.rebuild.mean_savings;
  }
  EXPECT_GE(ratio_sum / 10.0, 0.93);
}

TEST(Horizon, ZeroDriftLeavesEverySeriesUnchanged) {
  const drp::Problem p = testutil::small_instance(707, 24, 80, 0.06);
  HorizonConfig cfg = horizon_config(4);
  cfg.drift = 0.0;
  const HorizonResult result = sim::run_horizon(p, cfg);
  const sim::DayRecord& first = result.stale.days[0];
  for (const HorizonSeries* series : all_series(result)) {
    ASSERT_EQ(series->days.size(), 4u);
    for (const sim::DayRecord& day : series->days) {
      EXPECT_EQ(day.churn_units, 0u);
      EXPECT_EQ(day.demand_moved, 0.0);
      EXPECT_EQ(day.savings, first.savings);
      EXPECT_EQ(day.mean_read_latency, first.mean_read_latency);
      EXPECT_EQ(day.replicas, first.replicas);
    }
  }
}

TEST(Horizon, SeriesShareDayZeroWithTheMechanism) {
  const drp::Problem p = testutil::small_instance(708, 24, 80, 0.06);
  const HorizonResult result = sim::run_horizon(p, horizon_config());
  const core::MechanismResult solved = core::run_agt_ram(p);
  const double initial = drp::CostModel::initial_cost(p);
  const double savings =
      (initial - drp::CostModel::total_cost(solved.placement)) / initial;
  for (const HorizonSeries* series : all_series(result)) {
    EXPECT_EQ(series->days[0].savings, savings);
    EXPECT_EQ(series->days[0].replicas,
              solved.placement.extra_replica_count());
    EXPECT_EQ(series->days[0].churn_units, 0u);
  }
}

TEST(Horizon, DeterministicInSeed) {
  const drp::Problem p = testutil::small_instance(705, 20, 60);
  const HorizonResult a = sim::run_horizon(p, horizon_config());
  const HorizonResult b = sim::run_horizon(p, horizon_config());
  const auto sa = all_series(a);
  const auto sb = all_series(b);
  for (std::size_t s = 0; s < sa.size(); ++s) {
    ASSERT_EQ(sa[s]->days.size(), sb[s]->days.size());
    for (std::size_t d = 0; d < sa[s]->days.size(); ++d) {
      EXPECT_DOUBLE_EQ(sa[s]->days[d].savings, sb[s]->days[d].savings);
      EXPECT_EQ(sa[s]->days[d].churn_units, sb[s]->days[d].churn_units);
    }
  }
}

TEST(Horizon, ZeroDaysThrows) {
  const drp::Problem p = testutil::small_instance(706, 12, 30);
  HorizonConfig cfg = horizon_config();
  cfg.days = 0;
  EXPECT_THROW(sim::run_horizon(p, cfg), std::invalid_argument);
}

// ------------------------------------------------------------- day drift
// The horizon's demand perturbation: one OnlineEventSource batch drawn from
// sim::day_drift_model.

std::vector<core::OnlineEvent> day_batch(const core::OnlineMechanism& engine,
                                         double drift, std::uint64_t seed) {
  runtime::OnlineEventSource source(
      engine, sim::day_drift_model(engine.problem(), drift, seed));
  return source.next_batch();
}

/// L1 distance between two same-structure instances' read matrices, over
/// the first one's total reads.
double read_l1(const drp::Problem& a, const drp::Problem& b) {
  double moved = 0.0;
  for (drp::ObjectIndex k = 0; k < a.object_count(); ++k) {
    for (const drp::Access& cell : a.access.accessors(k)) {
      const std::uint64_t other = b.access.reads(cell.server, k);
      moved += static_cast<double>(cell.reads > other ? cell.reads - other
                                                      : other - cell.reads);
    }
  }
  return moved / static_cast<double>(a.access.grand_total_reads());
}

TEST(Perturb, PreservesEverythingButDemand) {
  const drp::Problem base = testutil::small_instance(301, 20, 60);
  core::OnlineMechanism engine(base);
  const std::vector<core::OnlineEvent> batch = day_batch(engine, 0.25, 9);
  ASSERT_FALSE(batch.empty());
  for (const core::OnlineEvent& event : batch) {
    EXPECT_TRUE(std::holds_alternative<core::DemandDelta>(event));
  }
  engine.apply_events(batch);
  const drp::Problem& shifted = engine.problem();
  EXPECT_EQ(shifted.object_units, base.object_units);
  EXPECT_EQ(shifted.primary, base.primary);
  EXPECT_EQ(shifted.capacity, base.capacity);
  EXPECT_EQ(shifted.distances.get(), base.distances.get());
  // Drift moves volume between cells: totals hold, and no reader appears.
  EXPECT_EQ(shifted.access.grand_total_reads(),
            base.access.grand_total_reads());
  EXPECT_EQ(shifted.access.grand_total_writes(),
            base.access.grand_total_writes());
  for (drp::ObjectIndex k = 0; k < base.object_count(); ++k) {
    const auto before = base.access.readers(k);
    const auto after = shifted.access.readers(k);
    EXPECT_TRUE(std::equal(before.begin(), before.end(), after.begin(),
                           after.end()));
  }
  EXPECT_NO_THROW(shifted.validate());
}

TEST(Perturb, ActuallyMovesDemand) {
  const drp::Problem base = testutil::small_instance(302, 20, 60);
  core::OnlineMechanism engine(base);
  engine.apply_events(day_batch(engine, 0.5, 10));
  EXPECT_GT(read_l1(base, engine.problem()), 0.1);
}

TEST(Perturb, ZeroIntensityIsNearIdentity) {
  const drp::Problem base = testutil::small_instance(303, 20, 60);
  core::OnlineMechanism engine(base);
  EXPECT_TRUE(day_batch(engine, 0.0, 1).empty());
}

TEST(Perturb, DeterministicInSeed) {
  const drp::Problem base = testutil::small_instance(304, 20, 60);
  core::OnlineMechanism a(base);
  core::OnlineMechanism b(base);
  a.apply_events(day_batch(a, 0.25, 11));
  b.apply_events(day_batch(b, 0.25, 11));
  EXPECT_GT(read_l1(base, a.problem()), 0.0);
  EXPECT_DOUBLE_EQ(read_l1(a.problem(), b.problem()), 0.0);
}

TEST(Perturb, InvalidFractionsThrow) {
  const drp::Problem p = testutil::small_instance(305, 12, 30);
  HorizonConfig cfg = horizon_config();
  cfg.drift = -0.1;
  EXPECT_THROW(sim::run_horizon(p, cfg), std::invalid_argument);
  cfg.drift = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(sim::run_horizon(p, cfg), std::invalid_argument);
  cfg.drift = std::numeric_limits<double>::infinity();
  EXPECT_THROW(sim::run_horizon(p, cfg), std::invalid_argument);
}

// ------------------------------------------- adaptation on the online engine

core::OnlineConfig adapt_config() {
  core::OnlineConfig cfg;
  cfg.eviction_limit = std::numeric_limits<std::size_t>::max();
  return cfg;
}

struct DayMoves {
  std::size_t added = 0;
  std::size_t evicted = 0;
};

/// One horizon day of the Adapt policy: a demand-only drift batch, then the
/// empty batch that re-offers the capacity the eviction pass freed.
DayMoves adapt_one_day(core::OnlineMechanism& engine, double drift,
                       std::uint64_t seed) {
  const core::BatchOutcome day =
      engine.apply_events(day_batch(engine, drift, seed));
  const core::BatchOutcome settle = engine.apply_events({});
  return {day.repair_rounds + settle.repair_rounds,
          day.replicas_evicted + settle.replicas_evicted};
}

TEST(Eviction, DropsOnlyUnprofitableReplicas) {
  // line3: the mechanism places S0:O1, S1:O0 and S2:O0.  S2 stops reading
  // O0, so its copy is pure broadcast weight (drop benefit -6); S1's copy
  // still saves its own reads (+20) net of its broadcast (-2).
  const drp::Problem p = testutil::line3_problem();
  core::OnlineMechanism engine(p, adapt_config());
  ASSERT_TRUE(engine.placement().is_replicator(1, 0));
  ASSERT_TRUE(engine.placement().is_replicator(2, 0));
  const std::vector<core::OnlineEvent> cool{core::DemandDelta{2, 0, -4, 0}};
  const core::BatchOutcome out = engine.apply_events(cool);
  EXPECT_EQ(out.replicas_evicted, 1u);
  EXPECT_DOUBLE_EQ(out.eviction_cost_delta, -6.0);
  EXPECT_TRUE(engine.placement().is_replicator(1, 0));
  EXPECT_FALSE(engine.placement().is_replicator(2, 0));
  EXPECT_TRUE(engine.placement().is_replicator(0, 1));
  // A second pass is a no-op (fixed point).
  const core::BatchOutcome again = engine.apply_events({});
  EXPECT_EQ(again.repair_rounds + again.replicas_evicted, 0u);
}

TEST(Eviction, MechanismOutputIsEvictionStable) {
  // Everything AGT-RAM places has positive value at placement time, yet
  // later replicas can strand earlier ones (their reads reroute); an
  // eviction pass over every object must at most trim, never raise OTC.
  const drp::Problem p = testutil::small_instance(311, 24, 80);
  core::OnlineMechanism engine(p, adapt_config());
  const double before = engine.total_cost();
  std::vector<core::OnlineEvent> touch_all;
  for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    const auto cells = p.access.accessors(k);
    if (!cells.empty()) {
      touch_all.push_back(core::DemandDelta{cells[0].server, k, 0, 0});
    }
  }
  const core::BatchOutcome out = engine.apply_events(touch_all);
  EXPECT_EQ(out.repair_rounds, 0u);
  EXPECT_LE(out.eviction_cost_delta, 0.0);
  EXPECT_NO_THROW(engine.placement().check_invariants());
  EXPECT_LE(engine.total_cost(), before + 1e-6);
}

TEST(Adaptive, NoChangeNoMigration) {
  const drp::Problem p = testutil::small_instance(312, 24, 80);
  core::OnlineMechanism engine(p, adapt_config());
  const core::BatchOutcome out = engine.apply_events({});
  EXPECT_EQ(out.repair_rounds + out.replicas_evicted, 0u)
      << "stable demand must not churn replicas";
  EXPECT_TRUE(core::placements_identical(engine.placement(),
                                         core::run_agt_ram(p).placement));
}

TEST(Adaptive, TracksDemandShift) {
  const drp::Problem base = testutil::small_instance(313, 24, 80, 0.06);
  core::OnlineMechanism engine(base, adapt_config());
  // Bound to the engine's Problem: re-priced on the drifted demand.
  const drp::ReplicaPlacement stale = engine.placement();
  const DayMoves moves = adapt_one_day(engine, 0.5, 77);
  EXPECT_GT(moves.added + moves.evicted, 0u)
      << "demand moved, so must replicas";
  EXPECT_NO_THROW(engine.placement().check_invariants());

  // The adapted scheme must be as good as replanning from scratch.
  const double replanned = drp::CostModel::total_cost(
      core::run_agt_ram(engine.problem()).placement);
  const double adapted = engine.total_cost();
  EXPECT_NEAR(adapted, replanned, 0.05 * replanned);

  // ... and no worse than freezing the stale scheme.
  EXPECT_LT(adapted, drp::CostModel::total_cost(stale) + 1e-6);
}

TEST(Adaptive, MigrationIsCheaperThanRebuild) {
  // Under a mild shift, most replicas survive: the storage churn must be
  // well below tearing everything down and rebuilding.
  const drp::Problem base = testutil::small_instance(314, 24, 80, 0.06);
  core::OnlineMechanism engine(base, adapt_config());
  const drp::ReplicaPlacement before = engine.placement();
  const DayMoves moves = adapt_one_day(engine, 0.1, 78);

  std::size_t retained = 0;
  for (drp::ObjectIndex k = 0; k < base.object_count(); ++k) {
    for (const drp::ServerId i : before.replicators(k)) {
      if (i != base.primary[k] && engine.placement().is_replicator(i, k)) {
        ++retained;
      }
    }
  }
  EXPECT_GT(retained, before.extra_replica_count() / 2);
  EXPECT_LT(moves.added, before.extra_replica_count());
}

// --------------------------------------------------------------- graph IO

TEST(GraphIo, RoundTripPreservesTopology) {
  net::TopologyConfig cfg;
  cfg.nodes = 60;
  cfg.edge_probability = 0.2;
  cfg.seed = 31;
  const net::Graph original = net::generate_topology(cfg);
  std::stringstream ss;
  net::write_graph(ss, original);
  const net::Graph loaded = net::read_graph(ss);
  ASSERT_EQ(loaded.node_count(), original.node_count());
  ASSERT_EQ(loaded.edge_count(), original.edge_count());
  for (net::NodeId u = 0; u < 60; ++u) {
    ASSERT_EQ(loaded.degree(u), original.degree(u));
    for (const net::Edge& e : original.neighbors(u)) {
      EXPECT_TRUE(loaded.has_edge(u, e.to));
    }
  }
}

TEST(GraphIo, MalformedInputsThrow) {
  const auto expect_throw = [](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_THROW(net::read_graph(ss), std::runtime_error) << text;
  };
  expect_throw("");                      // missing header
  expect_throw("vertices 3\n");          // wrong keyword
  expect_throw("nodes 0\n");             // empty graph
  expect_throw("nodes 3\n0 9 1\n");      // endpoint out of range
  expect_throw("nodes 3\n0 1 0\n");      // zero cost
  expect_throw("nodes 3\n0 1\n");        // missing cost
  // Node counts the reader cannot represent are refused at the header,
  // before the graph is allocated: `>>` wraps -1 to SIZE_MAX, and 2^32
  // would truncate NodeId.
  expect_throw("nodes -1\n");
  expect_throw("nodes 4294967296\n");
  expect_throw("nodes 18446744073709551615\n");
  expect_throw("nodes " + std::to_string(net::kMaxGraphNodes + 1) + "\n");
  // Each field is one whole unsigned decimal and a line has no extra
  // field; every refusal names its line.
  const auto expect_refused_at = [](const std::string& text,
                                    const std::string& line) {
    std::stringstream ss(text);
    try {
      net::read_graph(ss);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << e.what();
    }
  };
  expect_refused_at("nodes 3\n0 1 2.5\n", "line 2");    // read as cost 2
  expect_refused_at("nodes 3\n0 1 2junk\n", "line 2");  // trailing junk
  expect_refused_at("nodes 3\n0 1 +2\n", "line 2");     // signed cost
  expect_refused_at("nodes 3\n0 1 2 9\n", "line 2");    // fourth field
  expect_refused_at("nodes 3 7\n", "line 1");           // third field
  expect_refused_at("# c\nnodes +3\n", "line 2");       // signed count
}

TEST(GraphIo, CommentsIgnored) {
  std::stringstream ss("# hello\nnodes 2\n# edge next\n0 1 7\n");
  const net::Graph g = net::read_graph(ss);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
}

}  // namespace
