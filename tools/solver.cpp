// agtram_solver — build an instance, run a placement method, report the
// outcome, and optionally persist / reload the replica scheme.
//
//   agtram_solver --algorithm AGT-RAM --servers 200 --objects 2000
//   agtram_solver --algorithm Greedy --placement-out scheme.txt
//   agtram_solver --placement-in scheme.txt       # score an existing scheme
#include <fstream>
#include <iostream>
#include <optional>

#include "baselines/registry.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"
#include "drp/placement_io.hpp"
#include "net/topology.hpp"
#include "sim/replay.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace agtram;

  common::Cli cli("solve a data-replication instance with any of the six "
                  "methods, or score a saved scheme");
  cli.add_flag("algorithm", "AGT-RAM",
               "Greedy | GRA | Ae-Star | AGT-RAM | DA | EA");
  cli.add_flag("servers", "200", "number of servers M");
  cli.add_flag("objects", "2000", "number of objects N");
  cli.add_flag("topology", "random",
               "random | waxman | transit-stub | power-law");
  cli.add_flag("capacity", "0.01", "replica headroom fraction");
  cli.add_flag("rw", "0.9", "read fraction of all accesses");
  cli.add_flag("seed", "7", "instance + algorithm seed");
  cli.add_flag("placement-out", "", "write the resulting scheme here");
  cli.add_flag("placement-in", "",
               "score this saved scheme instead of running an algorithm");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  drp::InstanceSpec spec;
  spec.servers = cli.get_unsigned<std::uint32_t>("servers");
  spec.objects = cli.get_unsigned<std::uint32_t>("objects");
  spec.topology = net::parse_topology_kind(cli.get("topology"));
  spec.seed = cli.get_unsigned<std::uint64_t>("seed");
  spec.instance.capacity_fraction = cli.get_double("capacity");
  spec.instance.rw_ratio = cli.get_double("rw");
  const drp::Problem problem = drp::make_instance(spec);
  const double initial = drp::CostModel::initial_cost(problem);
  std::cout << problem.summary() << "\n";

  std::optional<drp::ReplicaPlacement> placement;
  double seconds = 0.0;
  std::string source;
  if (const std::string in = cli.get("placement-in"); !in.empty()) {
    std::ifstream is(in);
    if (!is) {
      std::cerr << "cannot read " << in << "\n";
      return 1;
    }
    placement = drp::read_placement(is, problem);
    source = "loaded from " + in;
  } else {
    const auto algorithm = baselines::find_algorithm(cli.get("algorithm"));
    common::Timer timer;
    placement = algorithm.run(problem, spec.seed);
    seconds = timer.seconds();
    source = algorithm.name;
  }

  const double cost = drp::CostModel::total_cost(*placement);
  const sim::ReplayStats stats = sim::replay(*placement);
  common::Table table({"metric", "value"});
  table.set_title("result (" + source + ")");
  table.add_row({"OTC initial", common::Table::num(initial, 0)});
  table.add_row({"OTC final", common::Table::num(cost, 0)});
  table.add_row({"savings", common::Table::pct((initial - cost) / initial)});
  table.add_row({"replicas placed",
                 std::to_string(placement->extra_replica_count())});
  table.add_row({"mean read latency (cost units)",
                 common::Table::num(stats.read_latency.mean, 2)});
  table.add_row({"reads served locally",
                 common::Table::pct(stats.read_latency.local_fraction)});
  if (seconds > 0.0) {
    table.add_row({"solve time (s)", common::Table::num(seconds, 3)});
  }
  table.print(std::cout);

  if (const std::string out = cli.get("placement-out"); !out.empty()) {
    std::ofstream os(out);
    if (!os) {
      std::cerr << "cannot write " << out << "\n";
      return 1;
    }
    drp::write_placement(os, *placement);
    std::cout << "scheme written to " << out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return agtram::common::run_main(argc, argv, run);
}
