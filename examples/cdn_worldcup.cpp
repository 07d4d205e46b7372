// CDN scenario: the paper's motivating workload end to end.
//
// Synthesises a World-Cup-'98-style multi-day access trace, pushes it
// through the log-processing pipeline (present-in-all-days filter, top-K
// clients, 1-to-many client/server mapping), builds a DRP instance on an
// Inet-style AS-level topology, and runs the semi-distributed AGT-RAM
// deployment with full message accounting — the workflow a CDN operator
// would run nightly to refresh replica placement from yesterday's logs.
#include <algorithm>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"
#include "net/topology.hpp"
#include "runtime/distributed_mechanism.hpp"
#include "trace/pipeline.hpp"
#include "trace/worldcup.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace agtram;

  common::Cli cli("CDN replica placement from synthetic World Cup '98 logs");
  cli.add_flag("servers", "120", "CDN points of presence");
  cli.add_flag("days", "13", "day logs to synthesise (paper: 13 Fridays)");
  cli.add_flag("objects", "1500", "object universe of the site");
  cli.add_flag("clients", "500", "clients kept by the pipeline (paper: 500)");
  cli.add_flag("requests", "40000", "requests per day");
  cli.add_flag("capacity", "0.01", "replica headroom fraction per server");
  cli.add_flag("rw", "0.93", "read fraction after update injection");
  cli.add_flag("seed", "1998", "experiment seed");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  const auto servers = cli.get_unsigned<std::uint32_t>("servers");
  const auto seed = cli.get_unsigned<std::uint64_t>("seed");

  // --- 1. Synthesise the access logs.
  trace::WorldCupConfig wc;
  wc.days = cli.get_unsigned<std::uint32_t>("days");
  wc.object_universe = cli.get_unsigned<std::uint32_t>("objects");
  wc.core_objects = wc.object_universe * 2 / 3;
  wc.clients = cli.get_unsigned<std::uint32_t>("clients") * 2;
  wc.requests_per_day = cli.get_unsigned<std::uint64_t>("requests");
  wc.seed = seed;
  const auto days = trace::generate_worldcup_trace(wc);
  std::uint64_t raw_requests = 0;
  for (const auto& day : days) raw_requests += day.requests.size();
  std::cout << "synthesised " << days.size() << " day logs, " << raw_requests
            << " requests\n";

  // --- 2. The paper's log-processing script.
  trace::PipelineConfig pipe;
  pipe.servers = servers;
  pipe.top_clients = cli.get_unsigned<std::uint32_t>("clients");
  pipe.min_fanout = 1;
  pipe.max_fanout = 3;
  pipe.seed = seed ^ 0xc0ffee;
  const trace::Workload workload = trace::run_pipeline(days, pipe);
  std::cout << "pipeline kept " << workload.object_count()
            << " objects present in all " << days.size() << " logs and "
            << workload.total_requests << " requests from the top "
            << pipe.top_clients << " clients\n";

  // --- 3. AS-level topology and the DRP instance.
  net::TopologyConfig topo;
  topo.kind = net::TopologyKind::PowerLaw;
  topo.nodes = servers;
  topo.seed = seed ^ 0xa5;
  const net::Graph graph = net::generate_topology(topo);
  auto distances = std::make_shared<const net::DistanceMatrix>(
      net::DistanceMatrix::compute(graph));
  std::cout << "topology: " << graph.node_count() << " nodes, "
            << graph.edge_count() << " edges, diameter "
            << distances->diameter() << " cost units\n";

  drp::InstanceConfig inst;
  inst.capacity_fraction = cli.get_double("capacity");
  inst.rw_ratio = cli.get_double("rw");
  inst.seed = seed ^ 0xbeef;
  const drp::Problem problem =
      drp::build_problem(std::move(distances), workload, inst);
  std::cout << "instance: " << problem.summary() << "\n\n";

  // --- 4. Semi-distributed AGT-RAM.
  const double initial = drp::CostModel::initial_cost(problem);
  const auto report = runtime::run_distributed(problem);
  const double final_cost =
      drp::CostModel::total_cost(report.result.placement);

  common::Table table({"metric", "value"});
  table.set_title("nightly placement refresh");
  table.add_row({"OTC before", common::Table::num(initial, 0)});
  table.add_row({"OTC after", common::Table::num(final_cost, 0)});
  table.add_row({"savings", common::Table::pct((initial - final_cost) / initial)});
  table.add_row({"replicas placed",
                 std::to_string(report.result.replicas_placed())});
  table.add_row({"mechanism rounds", std::to_string(report.messages.rounds)});
  table.add_row({"protocol bytes", std::to_string(report.messages.total_bytes())});
  table.add_row({"simulated protocol time (s)",
                 common::Table::num(report.messages.simulated_seconds, 2)});
  table.add_row({"wall time (s)", common::Table::num(report.wall_seconds, 3)});
  table.print(std::cout);

  // --- 5. Which objects got replicated the most (the site's hot set).
  std::vector<std::pair<std::size_t, drp::ObjectIndex>> spread;
  for (drp::ObjectIndex k = 0; k < problem.object_count(); ++k) {
    spread.emplace_back(report.result.placement.replicators(k).size(), k);
  }
  std::sort(spread.rbegin(), spread.rend());
  common::Table hot({"object", "replicas", "reads", "size (units)"});
  hot.set_title("most replicated objects (the Zipf head)");
  for (std::size_t i = 0; i < std::min<std::size_t>(8, spread.size()); ++i) {
    const drp::ObjectIndex k = spread[i].second;
    hot.add_row({"O" + std::to_string(workload.object_ids[k]),
                 std::to_string(spread[i].first),
                 std::to_string(problem.access.total_reads(k)),
                 std::to_string(problem.object_units[k])});
  }
  hot.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return agtram::common::run_main(argc, argv, run);
}
