// Regional/hierarchical mechanism ablation (paper Section 7 future work):
// sweeping the number of autonomous regions and injecting regional
// failures.  The claims to quantify:
//
//   * quality is preserved — the regional decomposition converges to the
//     same no-positive-candidate fixed point as the flat mechanism;
//   * coordination cost drops — R regions allocate concurrently, so epochs
//     shrink ~R-fold and each regional centre handles only its members;
//   * failures degrade gracefully — killing one regional decision body
//     stalls only that region's allocations.
#include <iostream>

#include "bench_common.hpp"
#include "core/agt_ram.hpp"
#include "core/economics.hpp"
#include "core/regional.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace agtram;

  common::Cli cli("Regional mechanism ablation: region sweep + failure "
                  "injection");
  bench::add_common_flags(cli);
  bench::add_size_flags(cli);
  bench::add_csv_flag(cli);
  cli.add_flag("capacity", "30", "paper C%%");
  cli.add_flag("rw", "0.90", "read fraction");
  cli.add_flag("regions", "1,2,4,8,16", "region counts to sweep");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  const bench::Dims dims = bench::resolve_dims(cli);
  const auto seed = cli.get_unsigned<std::uint64_t>("seed");
  const drp::Problem problem = bench::build_instance(
      dims, cli.get_double("capacity"), cli.get_double("rw"), seed);
  const double initial = drp::CostModel::initial_cost(problem);

  const auto flat = core::run_agt_ram(problem);
  const double flat_savings =
      (initial - drp::CostModel::total_cost(flat.placement)) / initial;

  {
    common::Table table({"regions", "savings", "epochs",
                         "largest region", "max replicas/region",
                         "clearing charges"});
    table.set_title(
        "region sweep (flat mechanism: " + common::Table::pct(flat_savings) +
        " savings in " + std::to_string(flat.rounds.size()) + " rounds)");
    for (const std::uint32_t r :
         cli.get_unsigned_list<std::uint32_t>("regions")) {
      core::RegionalConfig cfg;
      cfg.regions = r;
      cfg.seed = seed;
      const auto result = core::run_regional(problem, cfg);
      const double savings =
          (initial - drp::CostModel::total_cost(result.placement)) / initial;
      std::uint32_t largest = 0;
      std::size_t max_replicas = 0;
      double charges = 0.0;
      for (const auto& region : result.regions) {
        largest = std::max(largest, region.member_count);
        max_replicas = std::max(max_replicas, region.replicas_placed);
        charges += region.charges;
      }
      table.add_row({std::to_string(cfg.regions), common::Table::pct(savings),
                     std::to_string(result.epochs), std::to_string(largest),
                     std::to_string(max_replicas),
                     common::Table::num(charges, 0)});
      std::cerr << "  R=" << cfg.regions << " done\n";
    }
    bench::emit(cli, table);
  }

  // Two-level hierarchy: regional champions -> top centre.  Allocation-
  // equivalent to the flat mechanism; the win is the top centre's fan-in
  // (R scalars instead of M) and weakly cheaper clearing.
  {
    common::Table table({"mechanism", "savings", "top-centre reports/round",
                         "total charges"});
    table.set_title("two-level hierarchy vs flat centre");
    table.add_row({"flat",
                   common::Table::pct(flat_savings),
                   common::Table::num(
                       static_cast<double>(problem.server_count()), 0) + " max",
                   common::Table::num(
                       core::economics_report(flat).charges, 0)});
    for (const std::uint32_t regions : {4u, 16u}) {
      core::RegionalConfig cfg;
      cfg.regions = regions;
      cfg.seed = seed;
      const auto hier = core::run_hierarchical(problem, cfg);
      const double savings =
          (initial - drp::CostModel::total_cost(hier.placement)) / initial;
      table.add_row({"hierarchical R=" + std::to_string(regions),
                     common::Table::pct(savings),
                     common::Table::num(
                         static_cast<double>(hier.top_level_reports) /
                             static_cast<double>(
                                 std::max<std::size_t>(1, hier.rounds.size())),
                         1),
                     common::Table::num(hier.total_charges, 0)});
    }
    table.print(std::cout);
    std::cerr << "  hierarchy panel done\n";
  }

  // Cooperative vs non-cooperative play within regions (the hierarchical
  // games the paper's future work envisions).
  {
    common::Table table({"intra-region game", "regions", "savings",
                         "replicas", "epochs"});
    table.set_title("hierarchical games: coalition welfare vs private "
                    "valuations inside each region");
    for (const std::uint32_t regions : {2u, 4u, 8u}) {
      core::RegionalConfig cfg;
      cfg.regions = regions;
      cfg.seed = seed;
      const auto selfish = core::run_regional(problem, cfg);
      const auto cooperative = core::run_regional_cooperative(problem, cfg);
      table.add_row({"non-cooperative", std::to_string(regions),
                     common::Table::pct(
                         (initial -
                          drp::CostModel::total_cost(selfish.placement)) /
                         initial),
                     std::to_string(selfish.replicas_placed()),
                     std::to_string(selfish.epochs)});
      table.add_row({"cooperative", std::to_string(regions),
                     common::Table::pct(
                         (initial -
                          drp::CostModel::total_cost(cooperative.placement)) /
                         initial),
                     std::to_string(cooperative.replicas_placed()),
                     std::to_string(cooperative.epochs)});
      std::cerr << "  hierarchical R=" << regions << " done\n";
    }
    table.print(std::cout);
  }

  {
    common::Table table({"failure scenario", "savings", "replicas placed"});
    table.set_title("failure injection (4 regions): a dead regional centre "
                    "stalls only its own members");
    for (int failures = 0; failures <= 3; ++failures) {
      core::RegionalConfig cfg;
      cfg.regions = 4;
      cfg.seed = seed;
      for (int f = 0; f < failures; ++f) {
        cfg.failed_regions.push_back(static_cast<std::uint32_t>(f));
      }
      const auto result = core::run_regional(problem, cfg);
      const double savings =
          (initial - drp::CostModel::total_cost(result.placement)) / initial;
      table.add_row({std::to_string(failures) + " of 4 regions down",
                     common::Table::pct(savings),
                     std::to_string(result.replicas_placed())});
    }
    table.print(std::cout);
  }

  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return agtram::common::run_main(argc, argv, run);
}
