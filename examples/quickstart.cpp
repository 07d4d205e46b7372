// Quickstart: build a replication instance, run AGT-RAM, and compare it
// against the five conventional methods from the paper.
//
//   ./examples/quickstart [--servers 60] [--objects 400] [--capacity 0.25]
//                         [--rw 0.85] [--seed 1]
#include <iostream>

#include "baselines/registry.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/agt_ram.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace agtram;

  common::Cli cli("AGT-RAM quickstart: one instance, all six methods");
  cli.add_flag("servers", "60", "number of servers (M)");
  cli.add_flag("objects", "400", "number of objects (N)");
  cli.add_flag("capacity", "0.25", "replica headroom C% as a fraction");
  cli.add_flag("rw", "0.85", "read fraction of all accesses (R/W)");
  cli.add_flag("seed", "1", "experiment seed");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  // 1. Build an instance: GT-ITM-style topology + synthetic World Cup '98
  //    trace + capacities/primaries per the paper's setup.
  drp::InstanceSpec spec;
  spec.servers = cli.get_unsigned<std::uint32_t>("servers");
  spec.objects = cli.get_unsigned<std::uint32_t>("objects");
  spec.instance.capacity_fraction = cli.get_double("capacity");
  spec.instance.rw_ratio = cli.get_double("rw");
  spec.seed = cli.get_unsigned<std::uint64_t>("seed");
  const drp::Problem problem = drp::make_instance(spec);
  std::cout << "instance: " << problem.summary() << "\n";

  const double initial = drp::CostModel::initial_cost(problem);
  std::cout << "primaries-only OTC: " << initial << "\n\n";

  // 2. Run the paper's mechanism directly through the public API.
  const core::MechanismResult mech = core::run_agt_ram(problem);
  std::cout << "AGT-RAM placed " << mech.replicas_placed()
            << " replicas over " << mech.rounds.size() << " rounds; total "
            << "payments disbursed: " << mech.total_payments() << "\n\n";

  // 3. Compare all six methods on OTC savings and wall time.
  common::Table table({"method", "OTC savings", "replicas", "time (ms)"});
  table.set_title("OTC savings vs. primaries-only scheme");
  for (const auto& algorithm : baselines::all_algorithms()) {
    common::Timer timer;
    const drp::ReplicaPlacement placement =
        algorithm.run(problem, spec.seed);
    const double ms = timer.millis();
    const double cost = drp::CostModel::total_cost(placement);
    table.add_row({algorithm.name,
                   common::Table::pct((initial - cost) / initial),
                   std::to_string(placement.extra_replica_count()),
                   common::Table::num(ms, 1)});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return agtram::common::run_main(argc, argv, run);
}
