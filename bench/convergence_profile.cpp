// Convergence dynamics: AGT-RAM is an anytime mechanism — every round ends
// with a feasible scheme, so a deployment can stop (or be interrupted) at
// any point.  This bench profiles OTC savings as a function of the round
// budget, quantifying the "solutions converge in a fast turn-around time"
// claim: the value-ordered allocation (highest valuations first) should
// capture most of the final savings in a small fraction of the rounds.
#include <iostream>

#include "bench_common.hpp"
#include "core/agt_ram.hpp"
#include "core/regional.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace agtram;

  common::Cli cli("anytime convergence profile of the mechanism");
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

  // Full run to learn the total round count and final savings.
  const auto full = core::run_agt_ram(problem);
  const double final_cost = drp::CostModel::total_cost(full.placement);
  const double final_savings = (initial - final_cost) / initial;
  const std::size_t total_rounds = full.rounds.size();

  common::Table table({"round budget", "% of rounds", "savings",
                       "% of final savings"});
  table.set_title("anytime profile: savings vs. round budget  [" +
                  std::to_string(total_rounds) + " rounds to quiescence, " +
                  common::Table::pct(final_savings) + " final]");

  // Replay the recorded allocation prefix — identical to running the
  // mechanism with max_rounds = budget, at a fraction of the cost.
  for (const double fraction : {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0}) {
    const auto budget = static_cast<std::size_t>(
        fraction * static_cast<double>(total_rounds));
    drp::ReplicaPlacement partial(problem);
    for (std::size_t r = 0; r < budget; ++r) {
      partial.add_replica(full.rounds[r].winner, full.rounds[r].object);
    }
    const double cost = drp::CostModel::total_cost(partial);
    const double savings = (initial - cost) / initial;
    table.add_row({std::to_string(budget),
                   common::Table::pct(fraction),
                   common::Table::pct(savings),
                   common::Table::pct(final_savings > 0.0
                                          ? savings / final_savings
                                          : 0.0)});
  }
  bench::emit(cli, table);

  // The regional deployment reaches the same fixed point in far fewer
  // epochs; show its head start as well.
  core::RegionalConfig rc;
  rc.regions = 8;
  rc.seed = seed;
  rc.max_epochs = std::max<std::size_t>(1, total_rounds / 50);
  const auto regional = core::run_regional(problem, rc);
  const double regional_savings =
      (initial - drp::CostModel::total_cost(regional.placement)) / initial;
  std::cout << "\nregional (8 regions) after " << regional.epochs
            << " epochs (" << regional.replicas_placed() << " replicas): "
            << common::Table::pct(regional_savings) << " savings\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return agtram::common::run_main(argc, argv, run);
}
