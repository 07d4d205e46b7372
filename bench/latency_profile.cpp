// User-perceived access latency (paper Section 1 motivation: "Replicating
// data objects onto servers across a system can alleviate access delays").
//
// The request-replay simulator routes every read against each method's
// placement and reports the latency distribution (metric-closure hops per
// read), the locally-served fraction, and the traffic-class breakdown —
// the end-user view behind the OTC savings of Figures 3/4.
//
// Percentiles come from sim::replay's exact request-weighted read-latency
// distribution, summarised by common::summarize_read_costs, the function that
// summarises serving_replay's read-cost histogram too, so the two benches
// are directly comparable.
#include <iostream>

#include "bench_common.hpp"
#include "sim/replay.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace agtram;

  common::Cli cli("Read-latency profile of every placement method");
  bench::add_common_flags(cli);
  bench::add_size_flags(cli);
  bench::add_csv_flag(cli);
  cli.add_flag("capacity", "30", "paper C%%");
  cli.add_flag("rw", "0.90", "read fraction");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  const bench::Dims dims = bench::resolve_dims(cli);
  const auto seed = cli.get_unsigned<std::uint64_t>("seed");
  const drp::Problem problem = bench::build_instance(
      dims, cli.get_double("capacity"), cli.get_double("rw"), seed);

  common::Table table({"method", "mean", "p50", "p90", "p99", "local reads",
                       "load imbalance", "top-5% load share"});
  table.set_title("per-read latency (metric-closure cost units) and server "
                  "load balance [M=" + std::to_string(dims.servers) +
                  ", N=" + std::to_string(dims.objects) + "]");

  const auto add_row = [&table](const std::string& name,
                                const drp::ReplicaPlacement& placement) {
    const sim::ReplayStats stats = sim::replay(placement);
    const sim::LatencySummary& latency = stats.read_latency;
    table.add_row({name,
                   common::Table::num(latency.mean, 2),
                   common::Table::num(latency.p50, 1),
                   common::Table::num(latency.p90, 1),
                   common::Table::num(latency.p99, 1),
                   common::Table::pct(stats.read_latency.local_fraction),
                   common::Table::num(stats.server_load.imbalance, 1) + "x",
                   common::Table::pct(stats.server_load.top5_share)});
  };

  // Baseline row: the primaries-only network.
  add_row("(primaries only)", drp::ReplicaPlacement(problem));

  for (const auto& algorithm : baselines::all_algorithms()) {
    const auto placement = algorithm.run(problem, seed);
    add_row(algorithm.name, placement);
    std::cerr << "  " << algorithm.name << " done\n";
  }
  bench::emit(cli, table);
  std::cout << "\nload imbalance = hottest server's served reads over the "
               "mean; the paper's 'no hosts become overloaded' claim means "
               "replication should pull it far below the primaries-only "
               "concentration.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return agtram::common::run_main(argc, argv, run);
}
