// Update-ratio robustness (paper Section 5 prose): "Further experiments
// with various update ratios (5%, 10%, and 20%) showed similar plot
// trends."  U% is the share of all accesses that are updates, i.e.
// R/W = 1 - U.  This bench re-runs the Figure-3 capacity sweep at each U%
// and reports AGT-RAM and Greedy savings so the trend claim can be checked
// directly, plus the write-popularity ablation (what happens when updates
// concentrate on the hot set instead of spreading uniformly).
#include <iostream>

#include "bench_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace agtram;

  common::Cli cli("Update-ratio ablation: capacity sweep at U% in {5,10,20}");
  bench::add_common_flags(cli);
  bench::add_size_flags(cli);
  bench::add_csv_flag(cli);
  cli.add_flag("capacities", "10,20,30,40", "paper C%% sweep points");
  cli.add_flag("updates", "5,10,20", "U%% update-load points");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  const bench::Dims dims = bench::resolve_dims(cli);
  const auto seed = cli.get_unsigned<std::uint64_t>("seed");
  const auto capacities = cli.get_double_list("capacities");
  const auto updates = cli.get_double_list("updates");
  const auto agtram = baselines::find_algorithm("AGT-RAM");
  const auto greedy = baselines::find_algorithm("Greedy");

  {
    std::vector<std::string> headers{"C%"};
    for (const double u : updates) {
      headers.push_back("AGT-RAM U=" + common::Table::num(u, 0) + "%");
      headers.push_back("Greedy U=" + common::Table::num(u, 0) + "%");
    }
    common::Table table(std::move(headers));
    table.set_title("OTC savings (%) vs. capacity at various update ratios");
    for (const double c : capacities) {
      std::vector<std::string> row{common::Table::num(c, 0) + "%"};
      for (const double u : updates) {
        const double rw = 1.0 - u / 100.0;
        const drp::Problem problem = bench::build_instance(dims, c, rw, seed);
        const double initial = drp::CostModel::initial_cost(problem);
        row.push_back(common::Table::pct(
            bench::run_algorithm(agtram, problem, initial, seed).savings));
        row.push_back(common::Table::pct(
            bench::run_algorithm(greedy, problem, initial, seed).savings));
      }
      table.add_row(std::move(row));
      std::cerr << "  C=" << c << "% done\n";
    }
    bench::emit(cli, table);
  }

  // Design-choice ablation (DESIGN.md): the builder spreads update volume
  // uniformly across objects by default; concentrating it on the read-hot
  // ranks (exponent -> the read Zipf exponent) collapses the profitable
  // set and with it the achievable savings.
  {
    common::Table table({"write popularity exponent", "AGT-RAM savings",
                         "replicas placed"});
    table.set_title("Ablation: update volume concentration vs. savings "
                    "[C=30%, U=10%]");
    for (const double e : {0.0, 0.4, 0.8, 1.1}) {
      drp::InstanceSpec spec;
      spec.servers = dims.servers;
      spec.objects = dims.objects;
      spec.seed = seed;
      spec.instance.capacity_fraction = bench::capacity_fraction(30.0);
      spec.instance.rw_ratio = 0.9;
      spec.instance.write_popularity_exponent = e;
      const drp::Problem problem = drp::make_instance(spec);
      const double initial = drp::CostModel::initial_cost(problem);
      const auto outcome =
          bench::run_algorithm(agtram, problem, initial, seed);
      table.add_row({common::Table::num(e, 1),
                     common::Table::pct(outcome.savings),
                     std::to_string(outcome.replicas)});
    }
    table.print(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return agtram::common::run_main(argc, argv, run);
}
