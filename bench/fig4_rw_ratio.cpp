// Figure 4 reproduction: OTC savings versus read/write ratio.
//
// Paper setup: M = 3718, N = 25000, C = 45%, R/W swept upwards to 0.95.
// Observations to reproduce: savings rise with the read share (the update
// ratio caps the attainable traffic reduction), AGT-RAM/Greedy peaking
// near the read-share bound (~88% in the paper), GRA gaining least.
#include <iostream>

#include "bench_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace agtram;

  common::Cli cli("Figure 4: OTC savings vs. read/write ratio "
                  "[M=3718; N=25,000; C=45% in the paper]");
  bench::add_common_flags(cli);
  bench::add_size_flags(cli);
  bench::add_csv_flag(cli);
  cli.add_flag("trials", "1",
               "instances per cell (results averaged over seeds)");
  cli.add_flag("capacity", "45", "paper C%% (paper: 45)");
  cli.add_flag("ratios", "0.30,0.40,0.50,0.60,0.70,0.80,0.90,0.95",
               "R/W sweep points (read fraction)");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  const bench::Dims dims = bench::resolve_dims(cli);
  const double capacity = cli.get_double("capacity");
  const auto seed = cli.get_unsigned<std::uint64_t>("seed");
  const auto ratios = cli.get_double_list("ratios");
  const auto algorithms = baselines::all_algorithms();

  std::vector<std::string> headers{"R/W"};
  for (const auto& a : algorithms) headers.push_back(a.name);
  headers.push_back("read-share bound");
  common::Table table(std::move(headers));
  table.set_title("Figure 4: OTC savings (%) vs. R/W ratio  [M=" +
                  std::to_string(dims.servers) + ", N=" +
                  std::to_string(dims.objects) + ", C=" +
                  common::Table::num(capacity, 0) + "%]");

  const auto trials =
      std::max<std::uint32_t>(1, cli.get_unsigned<std::uint32_t>("trials"));
  for (const double rw : ratios) {
    const drp::Problem problem = bench::build_instance(dims, capacity, rw, seed);
    const double initial = drp::CostModel::initial_cost(problem);

    // Upper bound on savings: the fraction of the initial OTC that is read
    // traffic (write shipping to the primary is irreducible).
    const drp::ReplicaPlacement primaries_only(problem);
    double read_cost = 0.0;
    for (drp::ObjectIndex k = 0; k < problem.object_count(); ++k) {
      const double o = static_cast<double>(problem.object_units[k]);
      for (const auto& a : problem.access.accessors(k)) {
        if (a.server == problem.primary[k]) continue;
        read_cost += static_cast<double>(a.reads) * o *
                     static_cast<double>(primaries_only.nn_distance(a.server, k));
      }
    }

    std::vector<std::string> row{common::Table::num(rw, 2)};
    for (const auto& algorithm : algorithms) {
      const auto outcome = bench::run_trials(
          algorithm,
          [&](std::uint64_t s) {
            return bench::build_instance(dims, capacity, rw, s);
          },
          seed, trials);
      row.push_back(common::Table::pct(outcome.savings));
    }
    row.push_back(common::Table::pct(read_cost / initial));
    table.add_row(std::move(row));
    std::cerr << "  R/W=" << rw << " done\n";
  }
  bench::emit(cli, table);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return agtram::common::run_main(argc, argv, run);
}
