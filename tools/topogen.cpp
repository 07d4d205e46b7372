// agtram_topogen — generate a network topology, report its structural
// statistics, and write it as an edge list.
//
//   agtram_topogen --kind power-law --nodes 500 --out as_level.topo
//   agtram_topogen --in as_level.topo            # re-analyse a saved file
#include <fstream>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "net/graph_io.hpp"
#include "net/graph_stats.hpp"
#include "net/shortest_paths.hpp"
#include "net/topology.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace agtram;

  common::Cli cli("generate / analyse network topologies");
  cli.add_flag("kind", "random",
               "random | waxman | transit-stub | power-law");
  cli.add_flag("nodes", "200", "node count");
  cli.add_flag("p", "0.5", "edge probability (random kind)");
  cli.add_flag("seed", "1", "generator seed");
  cli.add_flag("out", "", "write the edge list here");
  cli.add_flag("in", "", "analyse this saved topology instead of generating");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  net::Graph graph = [&] {
    if (const std::string in = cli.get("in"); !in.empty()) {
      std::ifstream is(in);
      if (!is) throw std::runtime_error("cannot read " + in);
      return net::read_graph(is);
    }
    net::TopologyConfig cfg;
    cfg.kind = net::parse_topology_kind(cli.get("kind"));
    cfg.nodes = cli.get_unsigned<std::uint32_t>("nodes");
    cfg.edge_probability = cli.get_double("p");
    cfg.seed = cli.get_unsigned<std::uint64_t>("seed");
    return net::generate_topology(cfg);
  }();

  const net::DegreeStats degrees = net::degree_stats(graph);
  const net::DistanceMatrix distances = net::DistanceMatrix::compute(graph);

  common::Table table({"statistic", "value"});
  table.set_title("topology profile");
  table.add_row({"nodes", std::to_string(graph.node_count())});
  table.add_row({"edges", std::to_string(graph.edge_count())});
  table.add_row({"connected", graph.connected() ? "yes" : "no"});
  table.add_row({"mean degree", common::Table::num(degrees.mean, 2)});
  table.add_row({"max degree", std::to_string(degrees.max)});
  table.add_row({"clustering coefficient",
                 common::Table::num(net::clustering_coefficient(graph), 3)});
  table.add_row({"degree power-law slope",
                 common::Table::num(net::degree_power_law_slope(graph), 2)});
  table.add_row({"mean edge cost",
                 common::Table::num(net::mean_edge_cost(graph), 2)});
  table.add_row({"diameter (cost units)",
                 std::to_string(distances.diameter())});
  table.add_row({"mean pairwise distance",
                 common::Table::num(distances.mean_distance(), 2)});
  table.print(std::cout);

  if (const std::string out = cli.get("out"); !out.empty()) {
    std::ofstream os(out);
    if (!os) {
      std::cerr << "cannot write " << out << "\n";
      return 1;
    }
    net::write_graph(os, graph);
    std::cout << "edge list written to " << out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return agtram::common::run_main(argc, argv, run);
}
