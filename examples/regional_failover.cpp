// Regional failover scenario — the paper's future-work vision in action:
// "regional autonomous, self-governed and self-repairing mechanisms ...
// less vulnerable to the failures of a single mechanism".
//
// A continental CDN is partitioned into latency-coherent regions, each
// running its own AGT-RAM decision body.  We (1) place replicas regionally,
// (2) kill one regional centre and show the damage is contained, and
// (3) re-plan with the survivors twice: a warm-started AGT-RAM run
// restricted to them (core::run_agt_ram_from) and a global-view greedy
// repair restricted to their sites.
#include <iostream>

#include "baselines/greedy.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/agt_ram.hpp"
#include "core/regional.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"
#include "sim/replay.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace agtram;

  common::Cli cli("Regional mechanisms with failover and survivor re-plan");
  cli.add_flag("servers", "120", "number of servers");
  cli.add_flag("objects", "1200", "number of objects");
  cli.add_flag("regions", "6", "autonomous regions");
  cli.add_flag("seed", "3141", "experiment seed");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  drp::InstanceSpec spec;
  spec.servers = cli.get_unsigned<std::uint32_t>("servers");
  spec.objects = cli.get_unsigned<std::uint32_t>("objects");
  spec.topology = net::TopologyKind::TransitStub;  // hierarchical Internet
  spec.seed = cli.get_unsigned<std::uint64_t>("seed");
  spec.instance.capacity_fraction = 0.015;
  spec.instance.rw_ratio = 0.93;
  const drp::Problem problem = drp::make_instance(spec);
  const double initial = drp::CostModel::initial_cost(problem);

  core::RegionalConfig healthy;
  healthy.regions = cli.get_unsigned<std::uint32_t>("regions");
  healthy.seed = spec.seed;

  // --- 1. Healthy regional placement.
  const auto placed = core::run_regional(problem, healthy);
  {
    common::Table table({"region", "centre", "members", "replicas",
                         "clearing charges"});
    table.set_title("healthy regional run — savings " +
                    common::Table::pct(
                        (initial -
                         drp::CostModel::total_cost(placed.placement)) /
                        initial) +
                    " in " + std::to_string(placed.epochs) + " epochs");
    for (std::size_t r = 0; r < placed.regions.size(); ++r) {
      const auto& region = placed.regions[r];
      table.add_row({std::to_string(r), "S" + std::to_string(region.centre),
                     std::to_string(region.member_count),
                     std::to_string(region.replicas_placed),
                     common::Table::num(region.charges, 0)});
    }
    table.print(std::cout);
  }

  // --- 2. Kill the busiest region's decision body and re-run from scratch
  // (what a deployment would have after the outage, with no failover).
  std::uint32_t busiest = 0;
  for (std::uint32_t r = 1; r < placed.regions.size(); ++r) {
    if (placed.regions[r].replicas_placed >
        placed.regions[busiest].replicas_placed) {
      busiest = r;
    }
  }
  core::RegionalConfig outage = healthy;
  outage.failed_regions = {busiest};
  const auto degraded = core::run_regional(problem, outage);

  // --- 3a. Selfish failover: surviving agents re-price their candidates
  // against the degraded scheme.  This predictably places ~nothing — the
  // orphaned demand belongs to the dead region's *readers*, and a selfish
  // agent never hosts for someone else's benefit.  A structural property
  // of the mechanism worth seeing once.
  std::vector<drp::ServerId> survivors;
  std::vector<bool> survivor_mask(problem.server_count(), false);
  for (drp::ServerId i = 0; i < problem.server_count(); ++i) {
    if (degraded.clustering.assignment[i] != busiest) {
      survivors.push_back(i);
      survivor_mask[i] = true;
    }
  }
  const auto failover = core::run_agt_ram_from(
      problem, core::AgtRamConfig{}, degraded.placement, &survivors);

  // --- 3b. Global-view repair: a centralised greedy pass restricted to
  // surviving sites — it happily parks replicas near the orphaned readers.
  baselines::GreedyConfig repair_cfg;
  repair_cfg.allowed_sites = &survivor_mask;
  const auto repaired = baselines::run_greedy_from(
      problem, degraded.placement, repair_cfg);

  {
    common::Table table({"scenario", "savings", "mean read latency",
                         "local reads"});
    table.set_title("containment: region " + std::to_string(busiest) +
                    " (the busiest) loses its decision body");
    const auto row = [&](const std::string& name,
                         const drp::ReplicaPlacement& placement) {
      const auto stats = sim::replay(placement);
      table.add_row({name,
                     common::Table::pct(
                         (initial - drp::CostModel::total_cost(placement)) /
                         initial),
                     common::Table::num(stats.read_latency.mean, 2),
                     common::Table::pct(stats.read_latency.local_fraction)});
    };
    row("healthy (" + std::to_string(healthy.regions) + " regions)",
        placed.placement);
    row("outage, no failover", degraded.placement);
    row("outage + selfish failover", failover.placement);
    row("outage + global-view repair", repaired);
    table.print(std::cout);
  }

  std::cout << "\nselfish failover placed " << failover.rounds.size()
            << " replicas (agents never host for the dead region's readers);"
            << "\nthe global-view repair placed "
            << repaired.extra_replica_count() -
                   degraded.placement.extra_replica_count()
            << " replicas near the orphaned demand.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return agtram::common::run_main(argc, argv, run);
}
