// The instrumented build's counter contract: one tiny run of each
// instrumented layer (mechanism, regional, online, serving, strategic audit,
// Glauber) must move the counters that layer exports.  Unlike
// tests/obs_test.cpp, this TU takes AGTRAM_OBS from the build, so it runs in
// the -DAGTRAM_OBS=ON builds (CI's obs legs, tools/run_sanitized_tests.sh)
// and skips where every counter site is compiled out.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "baselines/glauber.hpp"
#include "core/agt_ram.hpp"
#include "core/audit.hpp"
#include "core/online.hpp"
#include "core/regional.hpp"
#include "drp/builder.hpp"
#include "obs/obs.hpp"
#include "runtime/event_sim.hpp"
#include "srv/serving_engine.hpp"
#include "srv/workload.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;

/// Expects every named counter to have grown past its value in `before`.
void expect_moved(const std::vector<obs::CounterSnapshot>& before,
                  const std::vector<std::string_view>& names) {
  for (const std::string_view name : names) {
    std::uint64_t was = 0;
    for (const obs::CounterSnapshot& counter : before) {
      if (counter.name == name) was = counter.value;
    }
    const obs::Counter* now = obs::Registry::instance().find_counter(name);
    EXPECT_TRUE(now != nullptr && now->value() > was) << name;
  }
}

TEST(ObsCounters, EveryInstrumentedLayerMovesItsCounters) {
  if constexpr (AGTRAM_OBS_ENABLED == 0) {
    GTEST_SKIP() << "counter sites are compiled out (AGTRAM_OBS=OFF)";
  }
  const obs::Registry& registry = obs::Registry::instance();
  const drp::Problem p = testutil::small_instance(11, 24, 96);

  auto before = registry.counters();
  core::run_agt_ram(p);
  expect_moved(before, {"agt_ram.rounds", "agt_ram.reports_fresh"});

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
  expect_moved(before, {"online.batches", "online.events"});

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
    srv::ServingConfig config;
    config.policy = srv::ReconvergePolicy::OnDrift;
    config.min_window_requests = 512;
    config.volume_drift_threshold = 0.15;
    config.eviction_limit = 8;
    srv::ServingEngine engine(drp::make_instance(spec), config);
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
                        "srv.snapshot_installs", "srv.drift_triggers"});

  before = registry.counters();
  core::StrategicAuditConfig audit;
  audit.agents_to_probe = 1;
  audit.inflate_factors = {2.0};
  audit.deflate_factors = {0.5};
  audit.collusion_size = 0;
  core::strategic_audit(p, audit);
  expect_moved(before, {"audit.trials", "audit.rounds", "audit.checks"});

  before = registry.counters();
  baselines::GlauberConfig glauber;
  glauber.sweeps = 8;
  baselines::run_glauber(p, glauber);
  expect_moved(before, {"glauber.sweeps", "glauber.proposals",
                        "glauber.accepted"});
}

}  // namespace
