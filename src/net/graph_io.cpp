#include "net/graph_io.hpp"

#include <cstdint>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/parse.hpp"

namespace agtram::net {

static_assert(kMaxGraphNodes <= std::numeric_limits<NodeId>::max());

void write_graph(std::ostream& os, const Graph& graph) {
  os << "# agtram topology: " << graph.node_count() << " nodes, "
     << graph.edge_count() << " edges\n";
  os << "nodes " << graph.node_count() << '\n';
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    for (const Edge& e : graph.neighbors(u)) {
      if (e.to > u) os << u << ' ' << e.to << ' ' << e.cost << '\n';
    }
  }
}

Graph read_graph(std::istream& is) {
  std::optional<Graph> graph;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    const auto fail = [&](const std::string& what) {
      throw std::runtime_error("topology line " + std::to_string(line_number) +
                               ": " + what);
    };
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t") == std::string::npos) continue;

    // Every field is one whole unsigned token, and a line has no extras.
    std::istringstream fields(line);
    std::string field[4];
    if (!graph) {
      std::size_t nodes = 0;
      if (!(fields >> field[0] >> field[1]) || fields >> field[2] ||
          field[0] != "nodes" || !common::parse_unsigned(field[1], nodes) ||
          nodes == 0) {
        fail("expected 'nodes <M>' header");
      }
      if (nodes > kMaxGraphNodes) {
        fail("node count out of range (at most " +
             std::to_string(kMaxGraphNodes) + ")");
      }
      graph.emplace(nodes);
      continue;
    }
    std::uint64_t a = 0, b = 0, cost = 0;
    if (!(fields >> field[0] >> field[1] >> field[2]) || fields >> field[3] ||
        !common::parse_unsigned(field[0], a) ||
        !common::parse_unsigned(field[1], b) ||
        !common::parse_unsigned(field[2], cost)) {
      fail("expected '<a> <b> <cost>' as unsigned integers");
    }
    if (a >= graph->node_count() || b >= graph->node_count()) {
      fail("endpoint out of range");
    }
    if (cost == 0 || cost > std::numeric_limits<Cost>::max()) {
      fail("cost out of range");
    }
    graph->add_edge(static_cast<NodeId>(a), static_cast<NodeId>(b),
                    static_cast<Cost>(cost));
  }
  if (!graph) throw std::runtime_error("topology: missing 'nodes' header");
  return std::move(*graph);
}

}  // namespace agtram::net
