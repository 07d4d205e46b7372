// Extended comparison: the paper's six methods plus the citation-lineage
// extras (Selfish caching best-response Nash — the paper's ref [8]; local
// search and simulated annealing from the FAP-heuristic tradition), with
// the mechanism's economics report alongside.
//
// The headline question this table answers: what does the *mechanism* add
// over the raw selfish game?  The Nash equilibrium is reachable without
// any centre (Selfish row) — AGT-RAM's contribution is reaching it with
// ordered convergence, truthfulness, and a payment story, not a better
// allocation; the global-view methods (Greedy/LocalSearch/SA) show what
// centralisation buys instead.
#include <iostream>

#include "bench_common.hpp"
#include "core/agt_ram.hpp"
#include "core/economics.hpp"
#include "sim/replay.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace agtram;

  common::Cli cli("Extended nine-method comparison + mechanism economics");
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
  const double initial = drp::CostModel::initial_cost(problem);

  {
    common::Table table({"method", "savings", "replicas", "time (s)",
                         "mean read latency"});
    table.set_title("nine-method comparison [M=" +
                    std::to_string(dims.servers) + ", N=" +
                    std::to_string(dims.objects) + "]");
    for (const auto& algorithm : baselines::extended_algorithms()) {
      common::Timer timer;
      const auto placement = algorithm.run(problem, seed);
      const double seconds = timer.seconds();
      const double cost = drp::CostModel::total_cost(placement);
      const auto stats = sim::replay(placement);
      table.add_row({algorithm.name,
                     common::Table::pct((initial - cost) / initial),
                     std::to_string(placement.extra_replica_count()),
                     common::Table::num(seconds, 3),
                     common::Table::num(stats.read_latency.mean, 2)});
      std::cerr << "  " << algorithm.name << " done\n";
    }
    bench::emit(cli, table);
  }

  // Mechanism economics (Axiom 5 quantified).
  {
    const auto result = core::run_agt_ram(problem);
    const auto econ = core::economics_report(result);
    common::Table table({"economic metric", "value"});
    table.set_title("AGT-RAM clearing economics");
    table.add_row({"welfare created (sum of winning valuations)",
                   common::Table::num(econ.welfare, 0)});
    table.add_row({"clearing charges", common::Table::num(econ.charges, 0)});
    table.add_row({"frugality ratio (charges / welfare)",
                   common::Table::pct(econ.frugality_ratio)});
    table.add_row({"agent surplus", common::Table::num(econ.total_surplus, 0)});
    table.add_row({"surplus Gini", common::Table::num(econ.utility_gini, 3)});
    table.add_row({"winning agents",
                   std::to_string(econ.winning_agents) + " of " +
                       std::to_string(problem.server_count())});
    table.add_row({"mean winner dominance (report / charge)",
                   common::Table::num(econ.mean_dominance, 2)});
    table.print(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return agtram::common::run_main(argc, argv, run);
}
