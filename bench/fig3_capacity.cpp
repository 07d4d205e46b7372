// Figure 3 reproduction: OTC savings versus server capacity.
//
// Paper setup: M = 3718, N = 25000, R/W = 0.95, capacity swept
// 10%..40%; all six methods plotted.  The paper's observations to
// reproduce: a steep initial rise in savings followed by a plateau ("the
// most beneficial objects are already replicated"), GRA trailing the
// field, AGT-RAM/Greedy leading, and a capacity increase from 10% to 18%
// multiplying the replica count severalfold.
#include <iostream>

#include "bench_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace agtram;

  common::Cli cli("Figure 3: OTC savings vs. server capacity "
                  "[M=3718; N=25,000; R/W=0.95 in the paper]");
  bench::add_common_flags(cli);
  bench::add_size_flags(cli);
  bench::add_csv_flag(cli);
  cli.add_flag("trials", "1",
               "instances per cell (results averaged over seeds)");
  cli.add_flag("rw", "0.95", "read fraction (paper: 0.95)");
  cli.add_flag("capacities", "10,15,20,25,30,35,40",
               "paper C%% sweep points");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  const bench::Dims dims = bench::resolve_dims(cli);
  const double rw = cli.get_double("rw");
  const auto seed = cli.get_unsigned<std::uint64_t>("seed");
  const auto capacities = cli.get_double_list("capacities");
  const auto algorithms = baselines::all_algorithms();

  std::vector<std::string> headers{"C%"};
  for (const auto& a : algorithms) headers.push_back(a.name);
  headers.push_back("AGT-RAM replicas");
  common::Table table(std::move(headers));
  table.set_title("Figure 3: OTC savings (%) vs. increase in server capacity"
                  "  [M=" + std::to_string(dims.servers) +
                  ", N=" + std::to_string(dims.objects) +
                  ", R/W=" + common::Table::num(rw, 2) + "]");

  const auto trials =
      std::max<std::uint32_t>(1, cli.get_unsigned<std::uint32_t>("trials"));
  for (const double c : capacities) {
    std::vector<std::string> row{common::Table::num(c, 0) + "%"};
    std::size_t agtram_replicas = 0;
    for (const auto& algorithm : algorithms) {
      const auto outcome = bench::run_trials(
          algorithm,
          [&](std::uint64_t s) { return bench::build_instance(dims, c, rw, s); },
          seed, trials);
      row.push_back(common::Table::pct(outcome.savings));
      if (algorithm.name == "AGT-RAM") agtram_replicas = outcome.replicas;
    }
    row.push_back(std::to_string(agtram_replicas));
    table.add_row(std::move(row));
    std::cerr << "  C=" << c << "% done\n";
  }
  bench::emit(cli, table);

  std::cout << "\npaper cross-check: capacity 10% -> 18% should multiply the"
               " replica count severalfold (paper reports ~4x on average).\n";
  const drp::Problem at10 = bench::build_instance(dims, 10.0, rw, seed);
  const drp::Problem at18 = bench::build_instance(dims, 18.0, rw, seed);
  const auto agtram = baselines::find_algorithm("AGT-RAM");
  const auto r10 = bench::run_algorithm(
      agtram, at10, drp::CostModel::initial_cost(at10), seed);
  const auto r18 = bench::run_algorithm(
      agtram, at18, drp::CostModel::initial_cost(at18), seed);
  std::cout << "measured: " << r10.replicas << " -> " << r18.replicas
            << " replicas (" << common::Table::num(
                   static_cast<double>(r18.replicas) /
                       static_cast<double>(std::max<std::size_t>(1, r10.replicas)),
                   2)
            << "x)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return agtram::common::run_main(argc, argv, run);
}
