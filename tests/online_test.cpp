// Differential suite for the online re-convergence engine (DESIGN.md §12).
//
// The load-bearing property: after every event batch, the engine's
// dirty-set repair run must be byte-identical — rounds, payments, placement,
// NN caches — to a full-participation warm re-solve on the mutated instance.
// Every OnlineMechanism here runs with `differential_oracle = true`, so the
// engine itself throws on the first differing byte; the tests drive scripted
// and randomized event streams through it and also pin the new low-level
// APIs (AccessMatrix::apply_demand_delta, DeltaEvaluator demand refresh and
// detach/attach, MechanismResult::drained).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/timer.hpp"
#include "core/agt_ram.hpp"
#include "core/online.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"
#include "drp/delta_evaluator.hpp"
#include "drp/problem.hpp"
#include "runtime/event_sim.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;

drp::Problem dispersed_instance(std::uint32_t servers = 32,
                                std::uint32_t objects = 128,
                                std::uint64_t seed = 7) {
  drp::InstanceSpec spec;
  spec.servers = servers;
  spec.objects = objects;
  spec.seed = seed;
  spec.demand = drp::DemandModel::Dispersed;
  spec.readers_per_object = 5.0;
  spec.instance.capacity_fraction = 0.05;
  spec.instance.rw_ratio = 0.9;
  return drp::make_instance(spec);
}

/// First (server, object) pair where the placement holds a non-primary
/// replica, or nullopt.
std::optional<std::pair<drp::ServerId, drp::ObjectIndex>> find_extra_replica(
    const drp::ReplicaPlacement& placement) {
  const drp::Problem& p = placement.problem();
  for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    for (const drp::ServerId r : placement.replicators(k)) {
      if (r != p.primary[k]) return std::make_pair(r, k);
    }
  }
  return std::nullopt;
}

// ------------------------------------------- AccessMatrix demand mutation

TEST(AccessMatrixDeltaTest, UpdatesEveryViewInLockstep) {
  drp::Problem p = testutil::line3_problem();
  // O0: reads S1=10, S2=4; writes S1=1.
  p.access.apply_demand_delta(/*i=*/1, /*k=*/0, /*dr=*/-3, /*dw=*/2);
  EXPECT_EQ(p.access.reads(1, 0), 7u);
  EXPECT_EQ(p.access.writes(1, 0), 3u);
  EXPECT_EQ(p.access.total_reads(0), 11u);
  EXPECT_EQ(p.access.total_writes(0), 3u);
  EXPECT_EQ(p.access.grand_total_reads(), 20u - 3u);
  EXPECT_EQ(p.access.grand_total_writes(), 4u + 2u);
  // By-server transpose sees the same values.
  bool found = false;
  for (const drp::ServerSideAccess& a : p.access.server_objects(1)) {
    if (a.object == 0) {
      EXPECT_EQ(a.reads, 7u);
      EXPECT_EQ(a.writes, 3u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(AccessMatrixDeltaTest, SoAStreamsStayBitwiseConsistent) {
  drp::Problem p = dispersed_instance();
  // Nudge a handful of cells, then require soa == static_cast<double>(aos)
  // for every slot of every touched object (the kernels' FP contract).
  std::vector<drp::ObjectIndex> touched;
  for (drp::ObjectIndex k = 0; k < p.object_count() && touched.size() < 6;
       ++k) {
    const auto row = p.access.accessors(k);
    if (row.empty()) continue;
    const drp::Access cell = row[0];
    if (cell.reads == 0) continue;
    p.access.apply_demand_delta(cell.server, k, 5, 1);
    touched.push_back(k);
  }
  ASSERT_FALSE(touched.empty());
  for (const drp::ObjectIndex k : touched) {
    const auto row = p.access.accessors(k);
    const auto reads_d = p.access.accessor_reads_d(k);
    const auto writes_d = p.access.accessor_writes_d(k);
    const auto servers = p.access.accessor_servers(k);
    for (std::size_t s = 0; s < row.size(); ++s) {
      EXPECT_EQ(servers[s], row[s].server);
      EXPECT_EQ(reads_d[s], static_cast<double>(row[s].reads));
      EXPECT_EQ(writes_d[s], static_cast<double>(row[s].writes));
    }
  }
}

TEST(AccessMatrixDeltaTest, RejectsInvalidMutations) {
  drp::Problem p = testutil::line3_problem();
  // No cell (S0, O0).
  EXPECT_THROW(p.access.apply_demand_delta(0, 0, 1, 0), std::invalid_argument);
  // Negative resulting demand.
  EXPECT_THROW(p.access.apply_demand_delta(2, 0, -5, 0),
               std::invalid_argument);
  EXPECT_THROW(p.access.apply_demand_delta(1, 0, 0, -2),
               std::invalid_argument);
  // O1: S1 is a pure writer (reads 0, writes 1) — structurally not a reader,
  // so read demand may never appear there.
  EXPECT_THROW(p.access.apply_demand_delta(1, 1, 3, 0),
               std::invalid_argument);
  // A rejected call must leave state untouched.
  EXPECT_EQ(p.access.reads(2, 0), 4u);
  EXPECT_EQ(p.access.writes(1, 0), 1u);
  EXPECT_EQ(p.access.reads(1, 1), 0u);
}

TEST(AccessMatrixDeltaTest, ReaderMayCoolToZeroAndReheat) {
  drp::Problem p = testutil::line3_problem();
  p.access.apply_demand_delta(2, 0, -4, 0);
  EXPECT_EQ(p.access.reads(2, 0), 0u);
  // S2 stays in the structural readers(O0) list through the dip...
  const auto readers = p.access.readers(0);
  EXPECT_NE(std::find(readers.begin(), readers.end(), 2u), readers.end());
  // ...so demand may return.
  p.access.apply_demand_delta(2, 0, 9, 0);
  EXPECT_EQ(p.access.reads(2, 0), 9u);
}

// ------------------------------------------ DeltaEvaluator demand refresh

TEST(DeltaEvaluatorOnlineTest, RefreshAfterDemandChangeMatchesCostModel) {
  drp::Problem p = dispersed_instance();
  core::MechanismResult solved = core::run_agt_ram(p);
  drp::DeltaEvaluator eval(solved.placement);

  // Mutate a cell on an object that actually has replicas and demand.
  const auto extra = find_extra_replica(eval.placement());
  ASSERT_TRUE(extra.has_value());
  const drp::ObjectIndex k = extra->second;
  const auto row = p.access.accessors(k);
  ASSERT_FALSE(row.empty());
  p.access.apply_demand_delta(row[0].server, k, 17, 3);

  // Stale until told; exact (bit-identical to a fresh evaluation) after.
  eval.refresh_after_demand_change(k);
  EXPECT_EQ(eval.object_cost(k),
            drp::CostModel::object_cost(eval.placement(), k));
  EXPECT_EQ(eval.total(), drp::CostModel::total_cost(eval.placement()));

  // The batch overload re-prices on the pool (enough objects to fork), in
  // any order, to the same bits.
  drp::Problem big = dispersed_instance(64, 1024, 11);
  core::MechanismResult big_solved = core::run_agt_ram(big);
  drp::DeltaEvaluator big_eval(big_solved.placement);
  const double before = big_eval.total();
  std::vector<drp::ObjectIndex> touched;
  for (drp::ObjectIndex j = big.object_count(); j-- > 0;) {
    const auto cells = big.access.accessors(j);
    if (cells.empty()) continue;
    big.access.apply_demand_delta(cells[0].server, j, 0, 5);
    touched.push_back(j);
  }
  ASSERT_GT(touched.size(), 512u);
  EXPECT_EQ(big_eval.total(), before);  // stale until told
  big_eval.refresh_after_demand_change(touched);
  for (drp::ObjectIndex j = 0; j < big.object_count(); ++j) {
    ASSERT_EQ(big_eval.object_cost(j),
              drp::CostModel::object_cost(big_eval.placement(), j))
        << "object " << j;
  }
  EXPECT_EQ(big_eval.total(),
            drp::CostModel::total_cost(big_eval.placement()));
}

TEST(DeltaEvaluatorOnlineTest, DetachAttachRefreshesExactlyTouchedObjects) {
  drp::Problem p = dispersed_instance();
  core::MechanismResult solved = core::run_agt_ram(p);
  drp::DeltaEvaluator eval(solved.placement);

  drp::ReplicaPlacement lent = eval.detach_placement();
  // Mutate one object while the placement is on loan.
  std::optional<drp::ObjectIndex> mutated;
  for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    for (const drp::ServerId i : p.access.readers(k)) {
      if (lent.can_replicate(i, k)) {
        lent.add_replica(i, k);
        mutated = k;
        break;
      }
    }
    if (mutated) break;
  }
  ASSERT_TRUE(mutated.has_value());
  const std::vector<drp::ObjectIndex> touched = {*mutated};
  eval.attach_placement(std::move(lent), touched);

  for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    EXPECT_EQ(eval.object_cost(k),
              drp::CostModel::object_cost(eval.placement(), k))
        << "object " << k;
  }
  EXPECT_EQ(eval.total(), drp::CostModel::total_cost(eval.placement()));
}

// --------------------------------------------------- MechanismResult.drained

TEST(DrainedFlagTest, NaturalTerminationDrainsBoundedRunDoesNot) {
  drp::Problem p = dispersed_instance();
  core::AgtRamConfig cfg;
  const core::MechanismResult full = core::run_agt_ram(p, cfg);
  EXPECT_TRUE(full.drained);
  ASSERT_GE(full.rounds.size(), 2u) << "instance too easy to test max_rounds";

  cfg.max_rounds = 1;
  for (const core::ReportMode mode :
       {core::ReportMode::Naive, core::ReportMode::Incremental}) {
    cfg.report_mode = mode;
    const core::MechanismResult capped = core::run_agt_ram(p, cfg);
    EXPECT_FALSE(capped.drained);
    EXPECT_EQ(capped.rounds.size(), 1u);
  }
}

// ------------------------------------------------- OnlineMechanism scripted

core::OnlineConfig oracle_config() {
  core::OnlineConfig cfg;
  cfg.differential_oracle = true;
  return cfg;
}

TEST(OnlineMechanismTest, EmptyAndNoOpBatchesAreCleanNoOps) {
  core::OnlineMechanism engine(dispersed_instance(), oracle_config());
  const double cost0 = engine.total_cost();

  const core::BatchOutcome empty = engine.apply_events({});
  EXPECT_EQ(empty.dirty_agents, 0u);
  EXPECT_EQ(empty.repair_rounds, 0u);
  EXPECT_TRUE(empty.oracle_checked);
  EXPECT_EQ(engine.total_cost(), cost0);

  // Joining a live server is defined as a no-op: empty dirty set.
  const std::vector<core::OnlineEvent> join = {core::ServerJoin{0}};
  const core::BatchOutcome noop = engine.apply_events(join);
  EXPECT_EQ(noop.dirty_agents, 0u);
  EXPECT_EQ(noop.repair_rounds, 0u);
  EXPECT_TRUE(noop.oracle_checked);
}

TEST(OnlineMechanismTest, DemandDeltasReconvergeByteIdentical) {
  drp::Problem p = dispersed_instance();
  core::OnlineMechanism engine(dispersed_instance(), oracle_config());

  // Read drift, then a write surge (the reader-wide dirty case), each batch
  // oracle-checked inside apply_events.
  std::vector<core::OnlineEvent> batch;
  for (drp::ObjectIndex k = 0; k < p.object_count() && batch.size() < 6;
       ++k) {
    const auto readers = engine.problem().access.readers(k);
    if (readers.size() < 2) continue;
    const std::uint64_t r0 = engine.problem().access.reads(readers[0], k);
    if (r0 < 2) continue;
    batch.push_back(core::DemandDelta{
        readers[0], k, -static_cast<std::int64_t>(r0 / 2), 0});
    batch.push_back(core::DemandDelta{
        readers[1], k, static_cast<std::int64_t>(r0 / 2), 0});
  }
  ASSERT_FALSE(batch.empty());
  const core::BatchOutcome drift = engine.apply_events(batch);
  EXPECT_TRUE(drift.oracle_checked);
  EXPECT_GT(drift.dirty_agents, 0u);

  // Write delta on the first writable cell: dirties all readers of k.
  std::vector<core::OnlineEvent> writes;
  for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    for (const drp::Access& a : engine.problem().access.accessors(k)) {
      if (a.writes > 0) {
        writes.push_back(core::DemandDelta{a.server, k, 0, 11});
        break;
      }
    }
    if (!writes.empty()) break;
  }
  ASSERT_FALSE(writes.empty());
  EXPECT_TRUE(engine.apply_events(writes).oracle_checked);
}

TEST(OnlineMechanismTest, ReplicaLossTriggersVerifiedReReplication) {
  core::OnlineMechanism engine(dispersed_instance(), oracle_config());
  const auto extra = find_extra_replica(engine.placement());
  ASSERT_TRUE(extra.has_value()) << "initial solve placed no replicas";

  const std::vector<core::OnlineEvent> loss = {
      core::ReplicaLoss{extra->first, extra->second}};
  const core::BatchOutcome out = engine.apply_events(loss);
  EXPECT_EQ(out.replicas_lost, 1u);
  EXPECT_GT(out.dirty_agents, 0u);
  EXPECT_TRUE(out.oracle_checked);
}

TEST(OnlineMechanismTest, ServerFailLoseEverythingThenRejoin) {
  core::OnlineMechanism engine(dispersed_instance(), oracle_config());
  const auto extra = find_extra_replica(engine.placement());
  ASSERT_TRUE(extra.has_value());
  const drp::ServerId victim = extra->first;

  const std::vector<core::OnlineEvent> fail = {core::ServerFail{victim}};
  const core::BatchOutcome failed = engine.apply_events(fail);
  EXPECT_GE(failed.replicas_lost, 1u);
  EXPECT_TRUE(failed.oracle_checked);
  EXPECT_TRUE(engine.server_failed(victim));
  // The failed server holds nothing beyond its primaries and can win nothing.
  EXPECT_EQ(engine.problem().capacity[victim],
            engine.placement().used_capacity(victim));

  const std::vector<core::OnlineEvent> join = {core::ServerJoin{victim}};
  const core::BatchOutcome joined = engine.apply_events(join);
  EXPECT_TRUE(joined.oracle_checked);
  EXPECT_FALSE(engine.server_failed(victim));

  // Double-fail is rejected.
  const std::vector<core::OnlineEvent> refail = {core::ServerFail{victim}};
  ASSERT_NO_THROW(engine.apply_events(refail));
  EXPECT_THROW(engine.apply_events(refail), std::invalid_argument);
}

// The fail walk visits the holder's whole demand row, including a cell
// whose reads fell to zero after its replica was placed (cells are
// structural, so the replica still sits on one).
TEST(OnlineMechanismTest, ServerFailDropsAReplicaWhoseReadsFellToZero) {
  core::OnlineMechanism engine(dispersed_instance(), oracle_config());
  const auto extra = find_extra_replica(engine.placement());
  ASSERT_TRUE(extra.has_value());
  const auto [holder, k] = *extra;
  const std::uint64_t reads = engine.problem().access.reads(holder, k);
  ASSERT_GT(reads, 0u);

  const std::vector<core::OnlineEvent> cool = {core::DemandDelta{
      holder, k, -static_cast<std::int64_t>(reads), 0}};
  EXPECT_TRUE(engine.apply_events(cool).oracle_checked);
  ASSERT_EQ(engine.problem().access.reads(holder, k), 0u);
  ASSERT_TRUE(engine.placement().is_replicator(holder, k));  // never evicted

  const std::vector<core::OnlineEvent> fail = {core::ServerFail{holder}};
  const core::BatchOutcome failed = engine.apply_events(fail);
  EXPECT_TRUE(failed.oracle_checked);
  EXPECT_FALSE(engine.placement().is_replicator(holder, k));
  EXPECT_EQ(engine.placement().used_capacity(holder),
            engine.problem().primary_load()[holder]);
}

TEST(OnlineMechanismTest, ObjectDeleteAndRecreateRoundTrip) {
  core::OnlineMechanism engine(dispersed_instance(), oracle_config());
  const auto extra = find_extra_replica(engine.placement());
  ASSERT_TRUE(extra.has_value());
  const drp::ObjectIndex k = extra->second;
  const std::uint64_t reads_before = engine.problem().access.total_reads(k);
  ASSERT_GT(reads_before, 0u);

  const std::vector<core::OnlineEvent> del = {core::ObjectDelete{k}};
  const core::BatchOutcome deleted = engine.apply_events(del);
  EXPECT_TRUE(deleted.oracle_checked);
  EXPECT_TRUE(engine.object_deleted(k));
  EXPECT_EQ(engine.problem().access.total_reads(k), 0u);
  EXPECT_EQ(engine.problem().access.total_writes(k), 0u);
  // Only the primary survives.
  EXPECT_EQ(engine.placement().replicators(k).size(), 1u);

  const std::vector<core::OnlineEvent> create = {core::ObjectCreate{k}};
  const core::BatchOutcome created = engine.apply_events(create);
  EXPECT_TRUE(created.oracle_checked);
  EXPECT_FALSE(engine.object_deleted(k));
  EXPECT_EQ(engine.problem().access.total_reads(k), reads_before);

  // Deleting twice / creating an active object is rejected.
  EXPECT_THROW(engine.apply_events(
                   std::vector<core::OnlineEvent>{core::ObjectCreate{k}}),
               std::invalid_argument);
}

TEST(OnlineMechanismTest, InvalidEventsAreRejected) {
  core::OnlineMechanism engine(dispersed_instance(), oracle_config());
  const drp::Problem& p = engine.problem();
  // Loss of a replica nobody holds.
  drp::ServerId non_rep = 0;
  const drp::ObjectIndex k0 = 0;
  while (engine.placement().is_replicator(non_rep, k0)) ++non_rep;
  EXPECT_THROW(
      engine.apply_events(std::vector<core::OnlineEvent>{
          core::ReplicaLoss{non_rep, k0}}),
      std::invalid_argument);
  // Primary loss is not a thing.
  EXPECT_THROW(
      engine.apply_events(std::vector<core::OnlineEvent>{
          core::ReplicaLoss{p.primary[k0], k0}}),
      std::invalid_argument);
}

// A rejected event must not strand what the batch's earlier events did:
// they stay applied with exact caches, their agents are repaired by the
// next batch, and the dirty flags are clear for later marks.
TEST(OnlineMechanismTest, RejectedBatchLeavesTheEngineRepairable) {
  core::OnlineMechanism engine(dispersed_instance(), oracle_config());
  const drp::Problem& p = engine.problem();
  // A reader cell whose holder replicates nothing there and has room.
  std::optional<std::pair<drp::ServerId, drp::ObjectIndex>> cell;
  for (drp::ObjectIndex k = 0; k < p.object_count() && !cell; ++k) {
    for (const drp::ServerId i : p.access.readers(k)) {
      if (i != p.primary[k] && engine.placement().can_replicate(i, k)) {
        cell = std::make_pair(i, k);
        break;
      }
    }
  }
  ASSERT_TRUE(cell.has_value());
  const auto [i, k] = *cell;
  const std::uint64_t reads = p.access.reads(i, k);

  // The read surge is valid; the loss of a replica i does not hold is not.
  const std::vector<core::OnlineEvent> batch = {
      core::DemandDelta{i, k, 1000000, 0}, core::ReplicaLoss{i, k}};
  EXPECT_THROW(engine.apply_events(batch), std::invalid_argument);
  EXPECT_EQ(p.access.reads(i, k), reads + 1000000);
  EXPECT_EQ(engine.total_cost(),
            drp::CostModel::total_cost(engine.placement()));
  ASSERT_EQ(engine.pending_carryover().size(), 1u);
  EXPECT_EQ(engine.pending_carryover()[0], i);

  const core::BatchOutcome next = engine.apply_events({});
  EXPECT_TRUE(next.oracle_checked);
  EXPECT_GE(next.repair_rounds, 1u);
  EXPECT_TRUE(engine.pending_carryover().empty());

  const std::vector<core::OnlineEvent> later = {core::DemandDelta{i, k, 1, 0}};
  const core::BatchOutcome after = engine.apply_events(later);
  EXPECT_GE(after.dirty_agents, 1u);
  EXPECT_TRUE(after.oracle_checked);
}

// The stage seconds are parts of one call: non-negative, and together
// within the call's own wall time.
TEST(OnlineMechanismTest, StageSecondsFitInsideTheCall) {
  core::OnlineConfig config;
  config.eviction_limit = 16;
  core::OnlineMechanism engine(dispersed_instance(), config);
  runtime::OnlineEventModel model;
  model.seed = 505;
  model.replica_loss_rate = 0.05;
  model.server_fail_rate = 0.02;
  model.server_recover_rate = 0.5;
  runtime::OnlineEventSource source(engine, model);
  std::size_t repaired = 0;
  for (int b = 0; b < 12; ++b) {
    const std::vector<core::OnlineEvent> batch = source.next_batch();
    const common::Timer wall;
    const core::BatchOutcome out = engine.apply_events(batch);
    const double wall_seconds = wall.seconds();
    EXPECT_GE(out.events_seconds, 0.0);
    EXPECT_GE(out.repair_seconds, 0.0);
    EXPECT_GE(out.eviction_seconds, 0.0);
    EXPECT_LE(out.events_seconds + out.repair_seconds + out.eviction_seconds,
              wall_seconds);
    if (out.dirty_agents > 0) {
      EXPECT_GT(out.repair_seconds, 0.0);
      ++repaired;
    }
  }
  EXPECT_GT(repaired, 0u);
}

// ----------------------------------------------- randomized event streams

void run_randomized_stream(drp::Problem problem, std::uint64_t seed,
                           std::size_t batches) {
  core::OnlineMechanism engine(std::move(problem), oracle_config());
  runtime::OnlineEventModel model;
  model.seed = seed;
  // Aggressive rates so every event type fires within the stream.
  model.replica_loss_rate = 0.05;
  model.server_fail_rate = 0.02;
  model.server_recover_rate = 0.5;
  model.demand_drift_moves = 6;
  model.flash_crowd_probability = 0.2;
  model.object_churn_probability = 0.3;
  runtime::OnlineEventSource source(engine, model);

  std::size_t oracle_checked = 0;
  std::size_t events = 0;
  std::uint64_t replicas_lost = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    const core::BatchOutcome out = engine.apply_events(source.next_batch());
    oracle_checked += out.oracle_checked ? 1 : 0;
    events += out.events_applied;
    replicas_lost += out.replicas_lost;
  }
  // Unbounded repair: every batch drains, so every batch is oracle-checked.
  EXPECT_EQ(oracle_checked, batches);
  EXPECT_GT(events, 0u);
  // The mean-field churn must actually exercise loss-driven re-replication.
  EXPECT_GT(replicas_lost, 0u);
  EXPECT_EQ(engine.total_cost(),
            drp::CostModel::total_cost(engine.placement()));
}

TEST(OnlineMechanismTest, RandomizedStreamsStayByteIdenticalDispersed) {
  run_randomized_stream(dispersed_instance(), 101, 25);
  run_randomized_stream(dispersed_instance(48, 192, 9), 202, 15);
}

TEST(OnlineMechanismTest, RandomizedStreamsStayByteIdenticalTrace) {
  run_randomized_stream(testutil::small_instance(13, 24, 96), 303, 20);
}

// BatchOutcome::changed_objects is what a routing snapshot patches from, so
// it must list every object whose replicator set a batch changed, through
// any event kind, a repair round or an eviction.
TEST(OnlineMechanismTest, ChangedObjectsCoverEveryReplicatorChange) {
  core::OnlineConfig config;
  config.eviction_limit = 16;
  core::OnlineMechanism engine(dispersed_instance(), config);
  runtime::OnlineEventModel model;
  model.seed = 505;
  model.replica_loss_rate = 0.05;
  model.server_fail_rate = 0.03;
  model.server_recover_rate = 0.5;
  model.flash_crowd_probability = 0.2;
  model.object_churn_probability = 0.3;
  runtime::OnlineEventSource source(engine, model);
  const std::size_t n = engine.problem().object_count();

  std::size_t changed_sets = 0;
  std::size_t fails = 0;
  std::size_t evicted = 0;
  for (int b = 0; b < 40; ++b) {
    std::vector<std::vector<drp::ServerId>> before(n);
    for (drp::ObjectIndex k = 0; k < n; ++k) {
      const auto reps = engine.placement().replicators(k);
      before[k].assign(reps.begin(), reps.end());
    }
    const std::vector<core::OnlineEvent> events = source.next_batch();
    for (const core::OnlineEvent& e : events) {
      fails += std::holds_alternative<core::ServerFail>(e) ? 1 : 0;
    }
    const core::BatchOutcome out = engine.apply_events(events);
    evicted += out.replicas_evicted;
    const std::vector<drp::ObjectIndex>& listed = out.changed_objects;
    ASSERT_TRUE(std::is_sorted(listed.begin(), listed.end()));
    ASSERT_EQ(std::adjacent_find(listed.begin(), listed.end()), listed.end());
    for (drp::ObjectIndex k = 0; k < n; ++k) {
      const auto reps = engine.placement().replicators(k);
      if (std::equal(reps.begin(), reps.end(), before[k].begin(),
                     before[k].end())) {
        continue;
      }
      ++changed_sets;
      ASSERT_TRUE(std::binary_search(listed.begin(), listed.end(), k))
          << "batch " << b << ": object " << k
          << " changed replicators but is not listed";
    }
  }
  EXPECT_GT(changed_sets, 0u);
  EXPECT_GT(fails, 0u);
  EXPECT_GT(evicted, 0u);
}

// A repair always drains its dirty set: without eviction every batch is
// oracle-checked and nothing is carried into the next one.
TEST(OnlineMechanismTest, RepairDrainsEveryBatchWithoutCarryover) {
  core::OnlineMechanism engine(dispersed_instance(), oracle_config());
  runtime::OnlineEventModel model;
  model.seed = 404;
  model.replica_loss_rate = 0.05;
  model.flash_crowd_probability = 0.3;
  runtime::OnlineEventSource source(engine, model);
  for (int b = 0; b < 20; ++b) {
    const core::BatchOutcome out = engine.apply_events(source.next_batch());
    EXPECT_TRUE(out.oracle_checked) << "batch " << b;
    EXPECT_TRUE(engine.pending_carryover().empty()) << "batch " << b;
  }
}

// The event source under its default model, fed back through the engine
// for 40 batches: an FNV-1a digest over every event's kind and fields, the
// event count and the final OTC, recorded before the model's write-drift
// rate became a constant.
TEST(OnlineEventSourceTest, DefaultModelStreamPinned) {
  core::OnlineMechanism engine(dispersed_instance(), core::OnlineConfig{});
  runtime::OnlineEventSource source(engine, runtime::OnlineEventModel{});
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto fold = [&digest](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (value >> (8 * byte)) & 0xff;
      digest *= 0x100000001b3ULL;
    }
  };
  std::size_t events = 0;
  for (int b = 0; b < 40; ++b) {
    const std::vector<core::OnlineEvent> batch = source.next_batch();
    for (const core::OnlineEvent& event : batch) {
      fold(event.index());
      std::visit(
          [&fold](const auto& e) {
            using E = std::decay_t<decltype(e)>;
            if constexpr (std::is_same_v<E, core::DemandDelta>) {
              fold(e.server);
              fold(e.object);
              fold(static_cast<std::uint64_t>(e.delta_reads));
              fold(static_cast<std::uint64_t>(e.delta_writes));
            } else if constexpr (std::is_same_v<E, core::ReplicaLoss>) {
              fold(e.server);
              fold(e.object);
            } else if constexpr (std::is_same_v<E, core::ServerFail> ||
                                 std::is_same_v<E, core::ServerJoin>) {
              fold(e.server);
            } else {
              fold(e.object);
            }
          },
          event);
    }
    events += batch.size();
    engine.apply_events(batch);
  }
  EXPECT_EQ(digest, 0x834e9de89f438f34ULL);
  EXPECT_EQ(events, 493u);
  EXPECT_EQ(engine.total_cost(), 0x1.394f8p+17);
}

// ------------------------------------------------ demand-aware eviction

// Differential twin: identical engines fed the same write surge, one with
// the eviction pass on.  Until the first eviction both trajectories are
// byte-identical (both run the oracle), so at that batch the eviction
// engine's total must equal the twin's total plus its own (negative)
// eviction delta — the pass never worsens totals, only retires replicas
// whose delta-OTC drop benefit went negative under the new demand.
TEST(OnlineEvictionTest, WriteSurgeEvictsAndNeverWorsensTotals) {
  core::OnlineConfig with;
  with.differential_oracle = true;
  with.eviction_limit = 64;
  core::OnlineConfig without;
  without.differential_oracle = true;
  core::OnlineMechanism evict(dispersed_instance(), with);
  core::OnlineMechanism twin(dispersed_instance(), without);

  const auto extra = find_extra_replica(evict.placement());
  ASSERT_TRUE(extra.has_value());
  const drp::ObjectIndex k = extra->second;

  // A write surge on k: w_total(k) enters every replica's broadcast price,
  // so the extra replicas' drop benefits go negative.
  const drp::Access cell = evict.problem().access.accessors(k)[0];
  const std::vector<core::OnlineEvent> surge = {
      core::DemandDelta{cell.server, k, 0, 50000}};
  const core::BatchOutcome with_out = evict.apply_events(surge);
  const core::BatchOutcome without_out = twin.apply_events(surge);

  ASSERT_GT(with_out.replicas_evicted, 0u);
  EXPECT_LT(with_out.eviction_cost_delta, 0.0);
  EXPECT_LE(evict.total_cost(), twin.total_cost());
  // Exact accounting: same pre-eviction placement, so the totals differ by
  // exactly the summed drop deltas (up to float re-derivation noise).
  EXPECT_NEAR(evict.total_cost(),
              twin.total_cost() + with_out.eviction_cost_delta,
              1e-6 * std::abs(twin.total_cost()));
  // The cached total stays exact across the eviction mutations.
  EXPECT_NEAR(evict.total_cost(),
              drp::CostModel::total_cost(evict.placement()),
              1e-9 * std::abs(evict.total_cost()));
  EXPECT_EQ(evict.placement().replica_count() + with_out.replicas_evicted,
            twin.placement().replica_count());
}

TEST(OnlineEvictionTest, EvictionLimitBoundsThePass) {
  core::OnlineConfig config;
  config.eviction_limit = 1;
  core::OnlineMechanism engine(dispersed_instance(), config);
  const auto extra = find_extra_replica(engine.placement());
  ASSERT_TRUE(extra.has_value());
  const drp::ObjectIndex k = extra->second;
  const drp::Access cell = engine.problem().access.accessors(k)[0];
  const std::vector<core::OnlineEvent> surge = {
      core::DemandDelta{cell.server, k, 0, 50000}};
  const core::BatchOutcome out = engine.apply_events(surge);
  EXPECT_LE(out.replicas_evicted, 1u);
}

// After an eviction the evicting server and the object's readers carry into
// the next batch's dirty set; the oracle must stay green batch after batch
// (the monotone-retirement identity argument, extended across evictions).
TEST(OnlineEvictionTest, OracleStaysGreenAcrossEvictingStream) {
  core::OnlineConfig config;
  config.differential_oracle = true;
  config.eviction_limit = 16;
  core::OnlineMechanism engine(dispersed_instance(), config);
  const drp::Problem& inst = engine.problem();

  std::uint64_t evicted_total = 0;
  for (std::uint32_t round = 0; round < 6; ++round) {
    std::vector<core::OnlineEvent> events;
    for (drp::ObjectIndex k = round; k < inst.object_count(); k += 11) {
      const auto row = inst.access.accessors(k);
      if (row.empty()) continue;
      const drp::Access cell = row[round % row.size()];
      // Alternate write surges and partial reversals: replicas placed for
      // one regime turn negative in the next.
      const std::int64_t surge = (round % 2 == 0) ? 8000 : -4000;
      if (surge < 0 &&
          static_cast<std::uint64_t>(-surge) > inst.access.writes(cell.server, k)) {
        continue;
      }
      events.push_back(core::DemandDelta{cell.server, k, 0, surge});
    }
    const core::BatchOutcome out = engine.apply_events(events);
    EXPECT_TRUE(out.oracle_checked);
    EXPECT_LE(out.eviction_cost_delta, 0.0);
    evicted_total += out.replicas_evicted;
  }
  EXPECT_GT(evicted_total, 0u);
}

}  // namespace
