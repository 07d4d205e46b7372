// Serving-layer trace replay (DESIGN.md §13): millions of requests routed
// against the live placement, comparing re-convergence policies end to end.
//
// Each policy serves the same drifting synthetic stream:
//   static     — solve once, never re-converge (placement-quality floor),
//   resolve    — cold full re-solve after every batch (what staying
//                converged costs without the online engine),
//   ondrift    — drift-triggered OnlineMechanism repair + bounded eviction
//                (the system under test).
// Reported per policy: routing throughput, the exact request-weighted
// read-cost distribution, bytes moved, and how much wall time
// re-convergence consumed.
#include <algorithm>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "runtime/message_bus.hpp"
#include "srv/serving_engine.hpp"
#include "srv/workload.hpp"

namespace {

using namespace agtram;

struct PolicyRun {
  std::string name;
  srv::ServingStats stats;
  runtime::MessageStats wire;
};

int run(int argc, char** argv) {
  common::Cli cli("Serving-layer replay: policies under demand drift");
  bench::add_common_flags(cli);
  bench::add_size_flags(cli);
  bench::add_csv_flag(cli);
  cli.add_flag("requests", "1000000", "total routed requests per policy");
  cli.add_flag("batch", "8192", "request groups per batch");
  cli.add_flag("mean-count", "8", "mean request multiplicity per group");
  cli.add_flag("drift-interval", "2", "batches between drift steps (0=off)");
  cli.add_flag("drift-fraction", "0.5", "read+write mass moved per drift step");
  cli.add_flag("policy", "all", "all | static | resolve | ondrift");
  cli.add_flag("eviction-limit", "32", "ondrift: max evictions per repair");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  const bench::Dims dims = bench::resolve_dims(cli);
  const auto seed = cli.get_unsigned<std::uint64_t>("seed");
  const auto total_requests = cli.get_unsigned<std::uint64_t>("requests");
  const std::string which =
      cli.get_choice("policy", {"all", "static", "resolve", "ondrift"});

  srv::WorkloadConfig wconfig;
  wconfig.requests_per_batch = cli.get_unsigned<std::size_t>("batch");
  wconfig.mean_count = cli.get_unsigned<std::uint32_t>("mean-count");
  wconfig.drift_interval = cli.get_unsigned<std::size_t>("drift-interval");
  wconfig.drift_fraction = cli.get_double("drift-fraction");
  // Keep the drifted fraction of the catalogue constant across scales so
  // the trigger sees the same relative signal at any N.
  wconfig.drift_objects = std::max<std::size_t>(16, dims.objects / 4);
  wconfig.seed = seed + 1;

  const auto run_policy = [&](const std::string& name,
                              srv::ReconvergePolicy policy) {
    drp::Problem problem =
        bench::build_instance(dims, /*capacity=*/30.0, /*rw=*/0.90, seed);
    runtime::MessageBus bus(problem,
                            runtime::MessageBus::pick_centre(problem));
    srv::ServingConfig config;
    config.policy = policy;
    config.eviction_limit = cli.get_unsigned<std::size_t>("eviction-limit");
    config.bus = &bus;
    srv::ServingEngine engine(std::move(problem), config);
    srv::SyntheticWorkload workload(engine.problem(), wconfig);
    std::vector<srv::Request> batch;
    while (engine.stats().requests < total_requests) {
      workload.next_batch(batch);
      engine.run_batch(batch);
    }
    PolicyRun run;
    run.name = name;
    run.stats = engine.stats();
    run.wire = bus.stats();
    std::cerr << "  " << name << " done (" << run.stats.requests
              << " requests, " << run.stats.reconverges << " reconverges)\n";
    return run;
  };

  std::vector<PolicyRun> runs;
  if (which == "all" || which == "static") {
    runs.push_back(run_policy("static", srv::ReconvergePolicy::Static));
  }
  if (which == "all" || which == "resolve") {
    runs.push_back(run_policy("resolve", srv::ReconvergePolicy::EveryBatch));
  }
  if (which == "all" || which == "ondrift") {
    runs.push_back(run_policy("ondrift", srv::ReconvergePolicy::OnDrift));
  }

  common::Table table({"policy", "req/s (serve)", "read cost mean", "p99",
                       "local reads", "units moved", "installs", "reconv",
                       "evicted", "reconv s", "wire MB"});
  table.set_title("serving replay under drift [M=" +
                  std::to_string(dims.servers) + ", N=" +
                  std::to_string(dims.objects) + ", " +
                  std::to_string(total_requests) + " requests/policy]");
  for (const PolicyRun& run : runs) {
    const std::vector<std::uint64_t>& hist = run.stats.read_cost_histogram;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> costs;
    for (std::size_t d = 0; d < hist.size(); ++d) {
      if (hist[d] != 0) costs.emplace_back(d, hist[d]);
    }
    const common::LatencySummary cost =
        common::summarize_read_costs(std::move(costs));
    const double serve_rate =
        run.stats.serve_seconds > 0.0
            ? static_cast<double>(run.stats.requests) / run.stats.serve_seconds
            : 0.0;
    table.add_row(
        {run.name, common::Table::num(serve_rate, 0),
         common::Table::num(cost.mean, 2), common::Table::num(cost.p99, 1),
         common::Table::pct(cost.local_fraction),
         common::Table::num(run.stats.read_units + run.stats.write_units, 0),
         std::to_string(run.stats.installs),
         std::to_string(run.stats.reconverges),
         std::to_string(run.stats.replicas_evicted),
         common::Table::num(run.stats.reconverge_seconds, 3),
         common::Table::num(
             static_cast<double>(run.wire.serving_bytes()) / 1e6, 2)});
  }
  bench::emit(cli, table);
  std::cout << "\nread cost = metric-closure hops per routed read (exact, "
               "histogram-weighted); 'units moved' = data units x distance "
               "for reads + writes under each policy's placement "
               "trajectory.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return agtram::common::run_main(argc, argv, run);
}
