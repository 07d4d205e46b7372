// Serving-layer suite (DESIGN.md §13): the lock-free routing table, the
// synthetic request streams, and the ServingEngine's batch loop.
//
// The load-bearing properties:
//  * A RoutingSnapshot routes every structural demand cell byte-identically
//    to a naive nearest-replica scan over the live placement.
//  * Concurrent readers hammering RoutingTable::acquire while a control
//    thread installs rebuilt snapshots always observe a *coherent* epoch —
//    routes match exactly one published snapshot, never a torn mix (this is
//    the TSan target wired into tools/run_sanitized_tests.sh).
//  * A snapshot patched from the previous epoch over the changed objects
//    equals a full rebuild, byte for byte.
//  * The engine's demand fold-back, drift trigger (and its decision record),
//    and unit accounting agree with independent replays of the same
//    requests; a malformed batch is refused whole.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/agt_ram.hpp"
#include "core/online.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"
#include "drp/delta_evaluator.hpp"
#include "drp/problem.hpp"
#include "runtime/event_sim.hpp"
#include "runtime/message_bus.hpp"
#include "srv/routing_table.hpp"
#include "srv/serving_engine.hpp"
#include "srv/workload.hpp"

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

/// Naive oracle: nearest replicator of k to `from` by a full scan.
net::Cost naive_nearest(const drp::ReplicaPlacement& placement,
                        drp::ServerId from, drp::ObjectIndex k) {
  const drp::Problem& p = placement.problem();
  net::Cost best = std::numeric_limits<net::Cost>::max();
  for (const drp::ServerId r : placement.replicators(k)) {
    best = std::min(best, p.distance(from, r));
  }
  return best;
}

/// Checks every structural cell of `snap` against the naive scan.
void expect_snapshot_matches_naive(const srv::RoutingSnapshot& snap,
                                   const drp::ReplicaPlacement& placement) {
  const drp::Problem& p = placement.problem();
  for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    const auto servers = p.access.accessor_servers(k);
    for (std::size_t slot = 0; slot < servers.size(); ++slot) {
      const srv::RouteDecision route =
          snap.route_read(k, static_cast<std::uint32_t>(slot));
      ASSERT_EQ(route.distance, naive_nearest(placement, servers[slot], k))
          << "object " << k << " slot " << slot;
      // The recorded node is history-dependent under ties, but it must be a
      // replicator achieving the routed distance.
      ASSERT_TRUE(placement.is_replicator(route.server, k));
      ASSERT_EQ(p.distance(servers[slot], route.server), route.distance);
    }
  }
}

/// Byte equality of two snapshots of one Problem: every NN distance and
/// node, and every write-unit double's bits.
void expect_snapshots_equal(const srv::RoutingSnapshot& got,
                            const srv::RoutingSnapshot& want) {
  const drp::Problem& p = want.problem();
  ASSERT_EQ(&got.problem(), &p);
  ASSERT_EQ(got.replica_count(), want.replica_count());
  for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    const auto gd = got.nn_row(k);
    const auto wd = want.nn_row(k);
    ASSERT_TRUE(std::equal(gd.begin(), gd.end(), wd.begin(), wd.end()))
        << "nn_row differs at object " << k;
    const auto gn = got.nn_node_row(k);
    const auto wn = want.nn_node_row(k);
    ASSERT_TRUE(std::equal(gn.begin(), gn.end(), wn.begin(), wn.end()))
        << "nn_node_row differs at object " << k;
    for (std::uint32_t slot = 0; slot < gd.size(); ++slot) {
      const double g = got.write_units(k, slot);
      const double w = want.write_units(k, slot);
      ASSERT_EQ(std::memcmp(&g, &w, sizeof(double)), 0)
          << "write_units differ at object " << k << " slot " << slot;
    }
  }
}

// ------------------------------------------------------- RoutingSnapshot

TEST(RoutingSnapshotTest, RoutesEveryCellLikeTheNaiveScan) {
  drp::Problem problem = dispersed_instance();
  core::MechanismResult result = core::run_agt_ram(problem, {});
  srv::RoutingSnapshot snap(result.placement, /*epoch=*/0);
  EXPECT_EQ(snap.epoch(), 0u);
  EXPECT_EQ(snap.replica_count(), result.placement.replica_count());
  expect_snapshot_matches_naive(snap, result.placement);
}

TEST(RoutingSnapshotTest, WriteUnitsMatchManualAccounting) {
  drp::Problem problem = dispersed_instance(24, 96, 11);
  core::MechanismResult result = core::run_agt_ram(problem, {});
  const drp::ReplicaPlacement& placement = result.placement;
  srv::RoutingSnapshot snap(placement, 1);
  for (drp::ObjectIndex k = 0; k < problem.object_count(); ++k) {
    const drp::ServerId primary = problem.primary[k];
    const auto servers = problem.access.accessor_servers(k);
    for (std::size_t slot = 0; slot < servers.size(); ++slot) {
      const drp::ServerId writer = servers[slot];
      // sim::replay accounting: ship to the primary, then the primary
      // broadcasts to every other replicator, except the writer's own
      // incoming copy when the writer itself replicates k.
      double cost = problem.distance(writer, primary);
      for (const drp::ServerId r : placement.replicators(k)) {
        if (r == primary || r == writer) continue;
        cost += problem.distance(primary, r);
      }
      const double expected =
          static_cast<double>(problem.object_units[k]) * cost;
      EXPECT_DOUBLE_EQ(snap.write_units(k, static_cast<std::uint32_t>(slot)),
                       expected)
          << "object " << k << " slot " << slot;
    }
  }
}

TEST(RoutingSnapshotTest, ReadUnitsScaleDistanceByObjectSize) {
  drp::Problem problem = dispersed_instance(16, 48, 3);
  core::MechanismResult result = core::run_agt_ram(problem, {});
  srv::RoutingSnapshot snap(result.placement, 0);
  for (drp::ObjectIndex k = 0; k < problem.object_count(); ++k) {
    const auto row = snap.nn_row(k);
    for (std::size_t slot = 0; slot < row.size(); ++slot) {
      EXPECT_DOUBLE_EQ(snap.read_units(k, static_cast<std::uint32_t>(slot)),
                       static_cast<double>(problem.object_units[k]) *
                           static_cast<double>(row[slot]));
    }
  }
}

// A patched snapshot re-fills only the objects the online engine reports
// as changed; it must equal a from-scratch build everywhere.  Checked after
// every install of an evicting OnDrift engine, and after online batches of
// every event kind.
TEST(RoutingSnapshotTest, PatchedSnapshotEqualsFullBuild) {
  {
    srv::ServingConfig config;
    config.min_window_requests = 512;
    config.volume_drift_threshold = 0.15;
    config.eviction_limit = 8;
    srv::ServingEngine engine(dispersed_instance(24, 96, 19), config);
    srv::WorkloadConfig wconfig;
    wconfig.requests_per_batch = 1024;
    wconfig.drift_interval = 1;
    wconfig.drift_fraction = 0.5;
    wconfig.drift_objects = 48;
    srv::SyntheticWorkload workload(engine.problem(), wconfig);
    std::vector<srv::Request> batch;
    std::uint64_t checked = 0;
    for (int b = 0; b < 16; ++b) {
      workload.next_batch(batch);
      engine.run_batch(batch);
      if (b % 3 == 2) engine.reconverge_now();
      if (engine.stats().installs == checked) continue;
      checked = engine.stats().installs;
      const srv::RoutingSnapshot full(engine.placement(),
                                      engine.snapshot()->epoch());
      expect_snapshots_equal(*engine.snapshot(), full);
    }
    EXPECT_GE(checked, 5u);
    EXPECT_GT(engine.stats().replicas_evicted, 0u);
  }

  core::OnlineConfig config;
  config.eviction_limit = 8;
  core::OnlineMechanism engine(dispersed_instance(), config);
  runtime::OnlineEventModel model;
  model.seed = 606;
  model.replica_loss_rate = 0.05;
  model.server_fail_rate = 0.03;
  model.server_recover_rate = 0.5;
  model.write_drift_probability = 0.6;
  model.flash_crowd_probability = 0.2;
  model.object_churn_probability = 0.3;
  runtime::OnlineEventSource source(engine, model);
  auto patched =
      std::make_shared<const srv::RoutingSnapshot>(engine.placement(), 0);
  std::vector<bool> kinds(std::variant_size_v<core::OnlineEvent>, false);
  for (std::uint64_t b = 1; b <= 40; ++b) {
    const std::vector<core::OnlineEvent> events = source.next_batch();
    for (const core::OnlineEvent& e : events) kinds[e.index()] = true;
    const core::BatchOutcome out = engine.apply_events(events);
    auto next = std::make_shared<const srv::RoutingSnapshot>(
        *patched, engine.placement(), out.changed_objects, b);
    const srv::RoutingSnapshot full(engine.placement(), b);
    expect_snapshots_equal(*next, full);
    patched = std::move(next);
  }
  for (std::size_t kind = 0; kind < kinds.size(); ++kind) {
    EXPECT_TRUE(kinds[kind]) << "event kind " << kind << " never ran";
  }
}

// --------------------------------------------------------- RoutingTable

TEST(RoutingTableTest, InstallPublishesAndCountsSnapshots) {
  drp::Problem problem = dispersed_instance(16, 48, 5);
  core::MechanismResult result = core::run_agt_ram(problem, {});
  srv::RoutingTable table(
      std::make_shared<const srv::RoutingSnapshot>(result.placement, 0));
  EXPECT_EQ(table.installs(), 1u);
  EXPECT_EQ(table.acquire()->epoch(), 0u);
  table.install(
      std::make_shared<const srv::RoutingSnapshot>(result.placement, 1));
  EXPECT_EQ(table.installs(), 2u);
  EXPECT_EQ(table.acquire()->epoch(), 1u);
}

// The TSan target: N reader threads route off acquire()d snapshots while
// the control thread installs a sequence of epochs built from an evolving
// placement.  Every routed probe must checksum-match the pinned epoch —
// exactly one published snapshot, never a torn mix — and after the last
// install the table must route identically to a naive scan of the final
// placement.
TEST(RoutingTableTest, ConcurrentReadersNeverSeeATornSnapshot) {
  drp::Problem problem = dispersed_instance(24, 96, 13);
  core::OnlineMechanism engine(std::move(problem), {});
  const drp::Problem& inst = engine.problem();

  // Build the epoch sequence up front (snapshot *construction* is not the
  // concurrency under test; acquire/install is).
  constexpr std::size_t kEpochs = 8;
  std::vector<std::shared_ptr<const srv::RoutingSnapshot>> snapshots;
  snapshots.push_back(
      std::make_shared<const srv::RoutingSnapshot>(engine.placement(), 0));
  for (std::size_t e = 1; e < kEpochs; ++e) {
    // Shuffle read demand between the two heaviest readers of a few
    // objects: enough to move replicas between epochs.
    std::vector<core::OnlineEvent> events;
    for (drp::ObjectIndex k = static_cast<drp::ObjectIndex>(e);
         k < inst.object_count(); k += 17) {
      const auto readers = inst.access.readers(k);
      if (readers.size() < 2) continue;
      const drp::ServerId from = readers[e % readers.size()];
      const drp::ServerId to = readers[(e + 1) % readers.size()];
      const std::int64_t moved = static_cast<std::int64_t>(
          std::min<std::uint64_t>(inst.access.reads(from, k), 40));
      if (moved == 0 || from == to) continue;
      events.push_back(core::DemandDelta{from, k, -moved, 0});
      events.push_back(core::DemandDelta{to, k, moved, 0});
    }
    engine.apply_events(events);
    snapshots.push_back(
        std::make_shared<const srv::RoutingSnapshot>(engine.placement(), e));
  }

  // Probe set + per-epoch checksums (sum of routed distances).
  std::vector<std::pair<drp::ObjectIndex, std::uint32_t>> probes;
  for (drp::ObjectIndex k = 0; k < inst.object_count(); k += 3) {
    const std::size_t width = inst.access.accessors(k).size();
    for (std::size_t slot = 0; slot < width; slot += 2) {
      probes.emplace_back(k, static_cast<std::uint32_t>(slot));
    }
  }
  std::vector<std::uint64_t> expected(kEpochs, 0);
  for (std::size_t e = 0; e < kEpochs; ++e) {
    for (const auto& [k, slot] : probes) {
      expected[e] += snapshots[e]->route_read(k, slot).distance;
    }
  }

  srv::RoutingTable table(snapshots[0]);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> probes_run{0};
  std::vector<std::thread> readers;
  constexpr std::size_t kReaders = 4;
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = table.acquire();
        std::uint64_t sum = 0;
        for (const auto& [k, slot] : probes) {
          sum += snap->route_read(k, slot).distance;
        }
        EXPECT_EQ(sum, expected[snap->epoch()])
            << "torn routing at epoch " << snap->epoch();
        probes_run.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t e = 1; e < kEpochs; ++e) {
    // Let readers overlap each epoch before the next install.
    const std::uint64_t before = probes_run.load(std::memory_order_relaxed);
    while (probes_run.load(std::memory_order_relaxed) < before + kReaders) {
      std::this_thread::yield();
    }
    table.install(snapshots[e]);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(table.installs(), kEpochs);
  expect_snapshot_matches_naive(*table.acquire(), engine.placement());
}

// ------------------------------------------------------------- Workloads

TEST(SyntheticWorkloadTest, BatchesAreDeterministicAndStructurallyValid) {
  drp::Problem problem = dispersed_instance(16, 64, 21);
  srv::WorkloadConfig config;
  config.requests_per_batch = 512;
  config.seed = 42;
  srv::SyntheticWorkload a(problem, config);
  srv::SyntheticWorkload b(problem, config);
  std::vector<srv::Request> batch_a;
  std::vector<srv::Request> batch_b;
  for (int i = 0; i < 3; ++i) {
    a.next_batch(batch_a);
    b.next_batch(batch_b);
    ASSERT_EQ(batch_a.size(), config.requests_per_batch);
    for (std::size_t r = 0; r < batch_a.size(); ++r) {
      EXPECT_EQ(batch_a[r].object, batch_b[r].object);
      EXPECT_EQ(batch_a[r].slot, batch_b[r].slot);
      EXPECT_EQ(batch_a[r].count, batch_b[r].count);
      EXPECT_EQ(batch_a[r].write, batch_b[r].write);
      // Structural validity: the slot exists, and reads only land on
      // structural reader cells (apply_demand_delta's contract).
      const auto row = problem.access.accessors(batch_a[r].object);
      ASSERT_LT(batch_a[r].slot, row.size());
      EXPECT_GE(batch_a[r].count, 1u);
      if (!batch_a[r].write) {
        EXPECT_GT(row[batch_a[r].slot].reads, 0u);
      }
    }
  }
  EXPECT_EQ(a.batches_emitted(), 3u);
}

TEST(SyntheticWorkloadTest, DriftConcentratesTheMix) {
  drp::Problem problem = dispersed_instance(16, 64, 22);
  srv::WorkloadConfig config;
  config.requests_per_batch = 2048;
  config.drift_interval = 1;
  config.drift_fraction = 0.5;
  config.drift_objects = 32;
  srv::SyntheticWorkload workload(problem, config);
  std::vector<srv::Request> batch;
  for (int i = 0; i < 8; ++i) workload.next_batch(batch);
  EXPECT_EQ(workload.drift_steps(), 8u);
}

// ---------------------------------------------------------- ServingEngine

TEST(ServingEngineTest, StaticPolicyUnitsMatchIndependentReplay) {
  drp::Problem problem = dispersed_instance(24, 96, 31);
  srv::ServingConfig config;
  config.policy = srv::ReconvergePolicy::Static;
  srv::ServingEngine engine(std::move(problem), config);

  srv::WorkloadConfig wconfig;
  wconfig.requests_per_batch = 1024;
  wconfig.drift_interval = 0;
  srv::SyntheticWorkload workload(engine.problem(), wconfig);

  double expected_read_units = 0.0;
  double expected_write_units = 0.0;
  std::uint64_t expected_reads = 0;
  std::uint64_t expected_writes = 0;
  const drp::ReplicaPlacement& placement = engine.placement();
  const drp::Problem& inst = engine.problem();
  std::vector<srv::Request> batch;
  for (int b = 0; b < 4; ++b) {
    workload.next_batch(batch);
    for (const srv::Request& req : batch) {
      const drp::ServerId from =
          inst.access.accessor_servers(req.object)[req.slot];
      const double count = static_cast<double>(req.count);
      const double units = static_cast<double>(inst.object_units[req.object]);
      if (req.write) {
        expected_writes += req.count;
        const drp::ServerId primary = inst.primary[req.object];
        double cost = inst.distance(from, primary);
        for (const drp::ServerId r : placement.replicators(req.object)) {
          if (r == primary || r == from) continue;
          cost += inst.distance(primary, r);
        }
        expected_write_units += units * cost * count;
      } else {
        expected_reads += req.count;
        expected_read_units +=
            units * static_cast<double>(
                        naive_nearest(placement, from, req.object)) *
            count;
      }
    }
    engine.run_batch(batch);
  }

  const srv::ServingStats& stats = engine.stats();
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_EQ(stats.reads, expected_reads);
  EXPECT_EQ(stats.writes, expected_writes);
  EXPECT_EQ(stats.requests, expected_reads + expected_writes);
  EXPECT_DOUBLE_EQ(stats.read_units, expected_read_units);
  EXPECT_DOUBLE_EQ(stats.write_units, expected_write_units);
  EXPECT_EQ(stats.reconverges, 0u);
  EXPECT_EQ(stats.installs, 0u);
  // Histogram totals = routed reads; local reads sit in bucket 0.
  std::uint64_t hist_total = 0;
  for (const std::uint64_t c : stats.read_cost_histogram) hist_total += c;
  EXPECT_EQ(hist_total, expected_reads);
  EXPECT_EQ(stats.read_cost_histogram[0], stats.local_reads);
}

TEST(ServingEngineTest, EveryBatchPolicyReconvergesPerBatch) {
  drp::Problem problem = dispersed_instance(16, 48, 17);
  srv::ServingConfig config;
  config.policy = srv::ReconvergePolicy::EveryBatch;
  srv::ServingEngine engine(std::move(problem), config);

  srv::WorkloadConfig wconfig;
  wconfig.requests_per_batch = 256;
  srv::SyntheticWorkload workload(engine.problem(), wconfig);
  std::vector<srv::Request> batch;
  for (int b = 0; b < 3; ++b) {
    workload.next_batch(batch);
    engine.run_batch(batch);
  }
  EXPECT_EQ(engine.stats().reconverges, 3u);
  EXPECT_EQ(engine.stats().installs, 3u);
  EXPECT_EQ(engine.snapshot()->epoch(), 3u);
  // After each reconverge the snapshot matches the re-solved placement.
  expect_snapshot_matches_naive(*engine.snapshot(), engine.placement());
}

TEST(ServingEngineTest, OnDriftTriggersAndKeepsRoutingCoherent) {
  drp::Problem problem = dispersed_instance(24, 96, 19);
  srv::ServingConfig config;
  config.policy = srv::ReconvergePolicy::OnDrift;
  config.min_window_requests = 512;
  config.volume_drift_threshold = 0.15;
  config.eviction_limit = 8;
  config.differential_oracle = true;  // byte-check every repair run
  srv::ServingEngine engine(std::move(problem), config);
  ASSERT_NE(engine.online(), nullptr);

  srv::WorkloadConfig wconfig;
  wconfig.requests_per_batch = 1024;
  wconfig.drift_interval = 1;
  wconfig.drift_fraction = 0.5;
  wconfig.drift_objects = 48;
  srv::SyntheticWorkload workload(engine.problem(), wconfig);
  std::vector<srv::Request> batch;
  for (int b = 0; b < 10; ++b) {
    workload.next_batch(batch);
    engine.run_batch(batch);
  }
  const srv::ServingStats& stats = engine.stats();
  EXPECT_GT(stats.drift_triggers, 0u);
  EXPECT_EQ(stats.drift_triggers, stats.reconverges);
  EXPECT_EQ(stats.installs, stats.reconverges);
  EXPECT_GT(stats.demand_delta_cells, 0u);
  // The live snapshot always routes like a naive scan of the live placement.
  expect_snapshot_matches_naive(*engine.snapshot(), engine.placement());
  EXPECT_EQ(engine.snapshot()->epoch(), stats.installs);
}

// Re-convergence stage seconds: each non-negative, together within
// reconverge_seconds, and the repair and snapshot stages never empty once
// a re-convergence ran.  Covers both re-converging policies.
TEST(ServingEngineTest, ReconvergeStagesFitInsideReconvergeSeconds) {
  for (const srv::ReconvergePolicy policy :
       {srv::ReconvergePolicy::OnDrift, srv::ReconvergePolicy::EveryBatch}) {
    srv::ServingConfig config;
    config.policy = policy;
    config.eviction_limit = 8;
    srv::ServingEngine engine(dispersed_instance(24, 96, 29), config);
    srv::WorkloadConfig wconfig;
    wconfig.requests_per_batch = 1024;
    wconfig.drift_interval = 1;
    wconfig.drift_fraction = 0.5;
    srv::SyntheticWorkload workload(engine.problem(), wconfig);
    std::vector<srv::Request> batch;
    for (int b = 0; b < 4; ++b) {
      workload.next_batch(batch);
      engine.run_batch(batch);
      engine.reconverge_now();
    }
    const srv::ServingStats& stats = engine.stats();
    ASSERT_GT(stats.reconverges, 0u);
    const double stages[] = {stats.fold_seconds, stats.repair_seconds,
                             stats.eviction_seconds, stats.snapshot_seconds,
                             stats.install_seconds};
    double sum = 0.0;
    for (const double s : stages) {
      EXPECT_GE(s, 0.0);
      sum += s;
    }
    EXPECT_LE(sum, stats.reconverge_seconds);
    EXPECT_GT(stats.repair_seconds, 0.0);
    EXPECT_GT(stats.snapshot_seconds, 0.0);
  }
}

void expect_same_serving(const srv::ServingStats& a,
                         const srv::ServingStats& b) {
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.local_reads, b.local_reads);
  EXPECT_EQ(a.read_units, b.read_units);
  EXPECT_EQ(a.write_units, b.write_units);
  EXPECT_EQ(a.installs, b.installs);
  EXPECT_EQ(a.reconverges, b.reconverges);
  EXPECT_EQ(a.demand_delta_cells, b.demand_delta_cells);
  EXPECT_EQ(a.read_cost_histogram, b.read_cost_histogram);
}

// A batch holding one request the engine cannot serve or fold back is
// refused whole, before it changes the stats, the window or the bus: a read
// on a pure-writer cell used to be routed and counted, and every later
// re-convergence then threw on its fold.
TEST(ServingEngineTest, MalformedBatchIsRefusedWhole) {
  srv::ServingConfig config;
  config.shards = 4;
  config.volume_drift_threshold = 1e9;  // re-converge only when told to
  config.cost_regression_threshold = 1e9;
  drp::Problem problem = dispersed_instance();
  runtime::MessageBus bus(problem, runtime::MessageBus::pick_centre(problem));
  config.bus = &bus;
  srv::ServingEngine engine(dispersed_instance(), config);
  srv::ServingEngine twin(dispersed_instance(), config);
  const drp::Problem& inst = engine.problem();

  // A structural cell whose server is not among the object's readers.
  std::optional<std::pair<drp::ObjectIndex, std::uint32_t>> writer_cell;
  for (drp::ObjectIndex k = 0; k < inst.object_count() && !writer_cell; ++k) {
    const auto readers = inst.access.readers(k);
    const auto servers = inst.access.accessor_servers(k);
    for (std::uint32_t slot = 0; slot < servers.size(); ++slot) {
      if (!std::binary_search(readers.begin(), readers.end(), servers[slot])) {
        writer_cell.emplace(k, slot);
        break;
      }
    }
  }
  ASSERT_TRUE(writer_cell.has_value());

  srv::WorkloadConfig wconfig;
  wconfig.requests_per_batch = 512;
  wconfig.seed = 3;
  srv::SyntheticWorkload workload(inst, wconfig);
  std::vector<srv::Request> valid;
  workload.next_batch(valid);

  const auto n = static_cast<drp::ObjectIndex>(inst.object_count());
  const auto width0 =
      static_cast<std::uint32_t>(inst.access.accessors(0).size());
  const struct {
    srv::Request bad;
    const char* reason;
  } cases[] = {
      {{n, 0, 1, false}, "object out of range"},
      {{0, width0, 1, true}, "slot out of range"},
      {{writer_cell->first, writer_cell->second, 4, false},
       "read on a non-reader cell"},
  };
  const srv::ServingStats before = engine.stats();
  const std::uint64_t route_messages = bus.stats().route_messages;
  for (const auto& c : cases) {
    std::vector<srv::Request> batch = valid;
    // Late in the batch: the shards before it have routed their slices.
    batch.insert(batch.begin() + 400, c.bad);
    try {
      engine.run_batch(batch);
      ADD_FAILURE() << "accepted a batch with: " << c.reason;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("request 400"), std::string::npos) << what;
      EXPECT_NE(what.find(c.reason), std::string::npos) << what;
    }
    expect_same_serving(engine.stats(), before);
    EXPECT_EQ(engine.stats().serve_seconds, before.serve_seconds);
    EXPECT_EQ(bus.stats().route_messages, route_messages);
  }
  // The same cell written is fine.
  std::vector<srv::Request> write_ok = {
      {writer_cell->first, writer_cell->second, 4, true}};
  EXPECT_NO_THROW(engine.run_batch(write_ok));
  EXPECT_NO_THROW(twin.run_batch(write_ok));

  // The refusals left no trace in the window: the engine and a twin that
  // only saw the valid batches agree, then both fold and install.
  engine.run_batch(valid);
  twin.run_batch(valid);
  EXPECT_EQ(engine.last_drift().l1_drift, twin.last_drift().l1_drift);
  EXPECT_EQ(engine.last_drift().touched_cells, twin.last_drift().touched_cells);
  engine.reconverge_now();
  twin.reconverge_now();
  EXPECT_EQ(engine.stats().installs, before.installs + 1);
  expect_same_serving(engine.stats(), twin.stats());
}

// The drift record holds exactly what the trigger decided on: replaying the
// same batches independently — per-cell counts in first-touch order, shares
// registered in problem().access — reproduces its L1 drift and noise floor
// bit for bit, and its signal matches the engine's re-convergences.
TEST(ServingEngineTest, DriftRecordMatchesIndependentReplay) {
  srv::ServingConfig config;
  config.min_window_requests = 512;
  config.volume_drift_threshold = 0.15;
  srv::ServingEngine engine(dispersed_instance(24, 96, 19), config);
  const drp::AccessMatrix& access = engine.problem().access;

  srv::WorkloadConfig wconfig;
  wconfig.requests_per_batch = 1024;
  wconfig.drift_interval = 1;
  wconfig.drift_fraction = 0.5;
  wconfig.drift_objects = 48;
  srv::SyntheticWorkload workload(engine.problem(), wconfig);

  struct Seen {
    std::uint64_t registered;
    std::uint64_t count;
  };
  std::vector<std::int64_t> position(access.nonzeros(), -1);
  std::vector<Seen> order;
  std::uint64_t requests = 0;
  std::uint64_t groups = 0;
  std::size_t fired = 0;
  std::vector<srv::Request> batch;
  for (int b = 0; b < 12; ++b) {
    workload.next_batch(batch);
    // Replay first: the fold may rewrite demand after the evaluation.
    for (const srv::Request& req : batch) {
      const std::size_t idx = access.accessor_base(req.object) + req.slot;
      if (position[idx] < 0) {
        position[idx] = static_cast<std::int64_t>(order.size());
        const drp::Access& cell = access.accessors(req.object)[req.slot];
        order.push_back(Seen{cell.reads + cell.writes, 0});
      }
      order[static_cast<std::size_t>(position[idx])].count += req.count;
      requests += req.count;
    }
    groups += batch.size();
    const double grand = static_cast<double>(access.grand_total_reads() +
                                             access.grand_total_writes());
    double l1 = 0.0;
    for (const Seen& seen : order) {
      l1 += std::abs(static_cast<double>(seen.count) /
                         static_cast<double>(requests) -
                     static_cast<double>(seen.registered) / grand);
    }
    const double floor =
        std::sqrt(2.0 * static_cast<double>(order.size()) /
                  (3.14159265358979323846 * static_cast<double>(groups)));

    const std::uint64_t reconverges = engine.stats().reconverges;
    engine.run_batch(batch);
    const srv::DriftRecord& rec = engine.last_drift();
    EXPECT_EQ(rec.batch, engine.stats().batches);
    EXPECT_EQ(rec.window_requests, requests);
    EXPECT_EQ(rec.window_groups, groups);
    EXPECT_EQ(rec.touched_cells, order.size());
    EXPECT_EQ(rec.l1_drift, l1) << "batch " << b;
    EXPECT_EQ(rec.noise_floor, floor) << "batch " << b;
    EXPECT_EQ(rec.volume_drift_threshold, 0.15);
    EXPECT_EQ(rec.min_window_requests, 512u);
    const bool reconverged = engine.stats().reconverges != reconverges;
    EXPECT_EQ(rec.fired != srv::DriftSignal::None, reconverged);
    if (rec.fired == srv::DriftSignal::VolumeDrift) {
      EXPECT_GE(l1 - floor, 0.15);
    }
    if (reconverged) {
      ++fired;
      std::fill(position.begin(), position.end(), -1);
      order.clear();
      requests = 0;
      groups = 0;
    }
  }
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, 12u);
}

TEST(ServingEngineTest, BusSeparatesServingFromProtocolBytes) {
  drp::Problem problem = dispersed_instance(16, 48, 23);
  runtime::MessageBus bus(problem, runtime::MessageBus::pick_centre(problem));
  srv::ServingConfig config;
  config.policy = srv::ReconvergePolicy::EveryBatch;
  config.bus = &bus;
  srv::ServingEngine engine(std::move(problem), config);

  srv::WorkloadConfig wconfig;
  wconfig.requests_per_batch = 256;
  srv::SyntheticWorkload workload(engine.problem(), wconfig);
  std::vector<srv::Request> batch;
  workload.next_batch(batch);
  engine.run_batch(batch);

  const runtime::MessageStats& stats = bus.stats();
  EXPECT_EQ(stats.route_messages, engine.stats().requests);
  EXPECT_EQ(stats.route_bytes,
            stats.route_messages * runtime::kRouteWireBytes);
  EXPECT_EQ(stats.delta_messages, engine.stats().demand_delta_cells);
  EXPECT_EQ(stats.delta_bytes,
            stats.delta_messages * runtime::kDeltaCellWireBytes);
  EXPECT_GT(stats.install_messages, 0u);
  EXPECT_EQ(stats.install_bytes,
            stats.install_messages * runtime::kInstallEntryWireBytes);
  EXPECT_EQ(stats.serving_bytes(),
            stats.route_bytes + stats.delta_bytes + stats.install_bytes);
  // Protocol counters stay untouched: the serving plane is accounted apart.
  EXPECT_EQ(stats.report_messages, 0u);
  EXPECT_EQ(stats.total_bytes(), 0u);
}

}  // namespace
