// Topology-robustness ablation (paper Section 5 setup): the paper draws
// GT-ITM random topologies with p in {0.4, 0.5, 0.6, 0.7, 0.8} and an
// Inet-style AS-level topology.  This bench sweeps both the edge
// probability of the flat random model and the generator family, showing
// that the algorithm ordering is topology-invariant (the claim implicit in
// the paper's "to establish diversity ... the network connectivity was
// changed considerably").
#include <iostream>

#include "bench_common.hpp"
#include "net/topology.hpp"

namespace {

agtram::drp::Problem instance_with_topology(const agtram::bench::Dims& dims,
                                            agtram::net::TopologyKind kind,
                                            double edge_probability,
                                            double capacity_percent, double rw,
                                            std::uint64_t seed) {
  agtram::drp::InstanceSpec spec;
  spec.servers = dims.servers;
  spec.objects = dims.objects;
  spec.topology = kind;
  spec.edge_probability = edge_probability;
  spec.seed = seed;
  spec.instance.capacity_fraction =
      agtram::bench::capacity_fraction(capacity_percent);
  spec.instance.rw_ratio = rw;
  return agtram::drp::make_instance(spec);
}

int run(int argc, char** argv) {
  using namespace agtram;

  common::Cli cli("Topology ablation: GT-ITM p-sweep and generator families");
  bench::add_common_flags(cli);
  bench::add_size_flags(cli);
  bench::add_csv_flag(cli);
  cli.add_flag("capacity", "30", "paper C%%");
  cli.add_flag("rw", "0.90", "read fraction");
  cli.add_flag("probabilities", "0.4,0.5,0.6,0.7,0.8",
               "edge probabilities for the GT-ITM pure-random model");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  const bench::Dims dims = bench::resolve_dims(cli);
  const double capacity = cli.get_double("capacity");
  const double rw = cli.get_double("rw");
  const auto seed = cli.get_unsigned<std::uint64_t>("seed");
  const auto algorithms = baselines::all_algorithms();

  {
    std::vector<std::string> headers{"p"};
    for (const auto& a : algorithms) headers.push_back(a.name);
    common::Table table(std::move(headers));
    table.set_title("OTC savings (%) on GT-ITM pure-random G(M, p)");
    for (const double p : cli.get_double_list("probabilities")) {
      const drp::Problem problem = instance_with_topology(
          dims, net::TopologyKind::FlatRandom, p, capacity, rw, seed);
      const double initial = drp::CostModel::initial_cost(problem);
      std::vector<std::string> row{common::Table::num(p, 1)};
      for (const auto& algorithm : algorithms) {
        row.push_back(common::Table::pct(
            bench::run_algorithm(algorithm, problem, initial, seed).savings));
      }
      table.add_row(std::move(row));
      std::cerr << "  p=" << p << " done\n";
    }
    bench::emit(cli, table);
  }

  {
    std::vector<std::string> headers{"topology"};
    for (const auto& a : algorithms) headers.push_back(a.name);
    common::Table table(std::move(headers));
    table.set_title("OTC savings (%) across generator families "
                    "(random = GT-ITM, power-law = Inet-style)");
    for (const auto kind :
         {net::TopologyKind::FlatRandom, net::TopologyKind::Waxman,
          net::TopologyKind::TransitStub, net::TopologyKind::PowerLaw}) {
      const drp::Problem problem =
          instance_with_topology(dims, kind, 0.5, capacity, rw, seed);
      const double initial = drp::CostModel::initial_cost(problem);
      std::vector<std::string> row{net::to_string(kind)};
      for (const auto& algorithm : algorithms) {
        row.push_back(common::Table::pct(
            bench::run_algorithm(algorithm, problem, initial, seed).savings));
      }
      table.add_row(std::move(row));
      std::cerr << "  " << net::to_string(kind) << " done\n";
    }
    table.print(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return agtram::common::run_main(argc, argv, run);
}
