// The counter contract: one tiny run of each instrumented layer (mechanism,
// distributed runtime, regional, online, Greedy's kernel dispatch, serving,
// strategic audit, Glauber) must move the counters that layer exports.  The
// one-clock contract: every stage a result struct exports in seconds is the
// reading of its spans.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/glauber.hpp"
#include "baselines/greedy.hpp"
#include "core/agt_ram.hpp"
#include "core/audit.hpp"
#include "core/online.hpp"
#include "core/regional.hpp"
#include "drp/builder.hpp"
#include "drp/kernels.hpp"
#include "obs/obs.hpp"
#include "runtime/distributed_mechanism.hpp"
#include "runtime/event_sim.hpp"
#include "runtime/message_bus.hpp"
#include "srv/serving_engine.hpp"
#include "srv/workload.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;

/// The summed value of the named counters in `counters` (a counter never
/// registered counts 0).
std::uint64_t sum_of(const std::vector<obs::CounterSnapshot>& counters,
                     const std::vector<std::string_view>& names) {
  std::uint64_t sum = 0;
  for (const obs::CounterSnapshot& counter : counters) {
    for (const std::string_view name : names) {
      if (counter.name == name) sum += counter.value;
    }
  }
  return sum;
}

/// Expects every named counter to have grown past its value in `before`.
void expect_moved(const std::vector<obs::CounterSnapshot>& before,
                  const std::vector<std::string_view>& names) {
  const std::vector<obs::CounterSnapshot> now =
      obs::Registry::instance().counters();
  for (const std::string_view name : names) {
    EXPECT_GT(sum_of(now, {name}), sum_of(before, {name})) << name;
  }
}

TEST(ObsCounters, EveryInstrumentedLayerMovesItsCounters) {
  const obs::Registry& registry = obs::Registry::instance();
  const drp::Problem p = testutil::small_instance(11, 24, 96);

  auto before = registry.counters();
  core::run_agt_ram(p);
  expect_moved(before, {"agt_ram.rounds", "agt_ram.reports_fresh",
                        "pool.parallel_for_calls"});

  before = registry.counters();
  runtime::run_distributed(p);
  expect_moved(before, {"bus.report_bytes", "bus.broadcast_bytes"});

  before = registry.counters();
  core::RegionalConfig regional;
  regional.regions = 3;
  core::run_regional(p, regional);
  expect_moved(before, {"regional.epochs", "regional.reports_polled",
                        "regional.replicas_placed"});

  before = registry.counters();
  {
    core::OnlineMechanism engine(p);
    runtime::OnlineEventModel model;
    model.replica_loss_rate = 0.05;
    model.server_fail_rate = 0.02;
    runtime::OnlineEventSource source(engine, model);
    for (int b = 0; b < 4; ++b) engine.apply_events(source.next_batch());
  }
  expect_moved(before, {"online.batches", "online.events",
                        "delta_eval.refreshes"});

  // The one kernel dispatch: Greedy's candidate scan runs
  // best_add_read_pass over all M servers, so it must take the vector arm
  // exactly when the dispatch is active (AGTRAM_SIMD=0 turns it off).
  ASSERT_GE(p.server_count(), drp::kernels::kMinSimdServers);
  before = registry.counters();
  baselines::run_greedy(p);
  const char* arm = drp::kernels::simd_active()
                        ? "kernels.best_add.simd_servers"
                        : "kernels.best_add.scalar_servers";
  expect_moved(before, {arm});

  // The drifting stream of the serving suite's OnDrift test, on which the
  // drift trigger fires.
  before = registry.counters();
  {
    drp::InstanceSpec spec;
    spec.servers = 24;
    spec.objects = 96;
    spec.seed = 19;
    spec.demand = drp::DemandModel::Dispersed;
    spec.readers_per_object = 5.0;
    spec.instance.capacity_fraction = 0.05;
    spec.instance.rw_ratio = 0.9;
    drp::Problem problem = drp::make_instance(spec);
    runtime::MessageBus bus(problem, runtime::MessageBus::pick_centre(problem));
    srv::ServingConfig config;
    config.policy = srv::ReconvergePolicy::OnDrift;
    config.min_window_requests = 512;
    config.volume_drift_threshold = 0.15;
    config.eviction_limit = 8;
    config.bus = &bus;
    srv::ServingEngine engine(std::move(problem), config);
    srv::WorkloadConfig workload_config;
    workload_config.requests_per_batch = 1024;
    workload_config.drift_interval = 1;
    workload_config.drift_fraction = 0.5;
    workload_config.drift_objects = 48;
    srv::SyntheticWorkload workload(engine.problem(), workload_config);
    std::vector<srv::Request> batch;
    for (int b = 0; b < 10; ++b) {
      workload.next_batch(batch);
      engine.run_batch(batch);
    }
  }
  expect_moved(before, {"srv.requests", "srv.batches", "srv.reads_routed",
                        "srv.snapshot_installs", "srv.drift_triggers",
                        "bus.route_bytes"});

  before = registry.counters();
  core::StrategicAuditConfig audit;
  audit.agents_to_probe = 1;
  audit.collusion_size = 0;
  core::strategic_audit(p, audit);
  expect_moved(before, {"audit.trials", "audit.rounds", "audit.checks"});

  before = registry.counters();
  baselines::run_glauber(p);
  expect_moved(before, {"glauber.sweeps", "glauber.proposals",
                        "glauber.accepted"});
}

/// Expects `seconds` to be what the named spans recorded since `before`,
/// up to the rounding of adding nanosecond readings up as seconds.
void expect_reading(double seconds,
                    const std::vector<obs::SpanSnapshot>& before,
                    const std::vector<std::string_view>& names) {
  std::uint64_t ns = 0;
  for (const obs::SpanSnapshot& span : obs::Registry::instance().spans()) {
    for (const std::string_view name : names) {
      if (span.name == name) ns += span.total_ns;
    }
  }
  for (const obs::SpanSnapshot& span : before) {
    for (const std::string_view name : names) {
      if (span.name == name) ns -= span.total_ns;
    }
  }
  const double want = static_cast<double>(ns) * 1e-9;
  EXPECT_NEAR(seconds, want, 1e-12 * want) << names.front();
}

drp::Problem dispersed_instance(std::uint64_t seed) {
  drp::InstanceSpec spec;
  spec.servers = 24;
  spec.objects = 96;
  spec.seed = seed;
  spec.demand = drp::DemandModel::Dispersed;
  spec.readers_per_object = 5.0;
  spec.instance.capacity_fraction = 0.05;
  return drp::make_instance(spec);
}

// One clock: each stage field and its spans are one reading, on an online
// event stream, on both re-converging serving policies, and on a
// distributed run.
TEST(ObsSpans, StageFieldsAreTheirSpansReadings) {
  const obs::Registry& registry = obs::Registry::instance();
  {
    core::OnlineConfig config;
    config.eviction_limit = 16;
    core::OnlineMechanism engine(dispersed_instance(505), config);
    runtime::OnlineEventModel model;
    model.seed = 505;
    model.replica_loss_rate = 0.05;
    model.server_fail_rate = 0.02;
    model.server_recover_rate = 0.5;
    runtime::OnlineEventSource source(engine, model);
    for (int b = 0; b < 8; ++b) {
      const std::vector<core::OnlineEvent> events = source.next_batch();
      const auto before = registry.spans();
      const core::BatchOutcome out = engine.apply_events(events);
      expect_reading(out.events_seconds, before, {"online.events"});
      expect_reading(out.repair_seconds, before, {"online.repair"});
      expect_reading(out.eviction_seconds, before, {"online.evict"});
    }
  }

  // Each policy runs only one of the two spans behind fold_seconds and
  // repair_seconds; the other stays still.
  for (const srv::ReconvergePolicy policy :
       {srv::ReconvergePolicy::OnDrift, srv::ReconvergePolicy::EveryBatch}) {
    const auto before = registry.spans();
    srv::ServingConfig config;
    config.policy = policy;
    config.eviction_limit = 8;
    srv::ServingEngine engine(dispersed_instance(29), config);
    srv::WorkloadConfig workload_config;
    workload_config.requests_per_batch = 1024;
    workload_config.drift_interval = 1;
    workload_config.drift_fraction = 0.5;
    srv::SyntheticWorkload workload(engine.problem(), workload_config);
    std::vector<srv::Request> batch;
    for (int b = 0; b < 4; ++b) {
      workload.next_batch(batch);
      engine.run_batch(batch);
      engine.reconverge_now();
    }
    const srv::ServingStats& stats = engine.stats();
    ASSERT_GT(stats.reconverges, 0u);
    EXPECT_GT(stats.snapshot_seconds, 0.0);
    expect_reading(stats.serve_seconds, before, {"srv.route"});
    expect_reading(stats.reconverge_seconds, before, {"srv.reconverge"});
    expect_reading(stats.fold_seconds, before, {"srv.fold", "online.events"});
    expect_reading(stats.repair_seconds, before,
                   {"online.repair", "srv.resolve"});
    expect_reading(stats.eviction_seconds, before, {"online.evict"});
    expect_reading(stats.snapshot_seconds, before, {"srv.snapshot"});
    expect_reading(stats.install_seconds, before, {"srv.install"});
  }

  const drp::Problem problem = dispersed_instance(31);
  const auto before = registry.spans();
  const runtime::DistributedRunReport report =
      runtime::run_distributed(problem);
  expect_reading(report.wall_seconds, before, {"runtime.distributed_run"});
}

}  // namespace
