#include "net/graph_io.hpp"

#include <cstdint>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

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

    std::istringstream fields(line);
    if (!graph) {
      std::string keyword;
      std::size_t nodes = 0;
      if (!(fields >> keyword >> nodes) || keyword != "nodes" || nodes == 0) {
        fail("expected 'nodes <M>' header");
      }
      // `>>` wraps a negative count to a huge one, so this also refuses
      // `nodes -1`.
      if (nodes > kMaxGraphNodes) {
        fail("node count out of range (at most " +
             std::to_string(kMaxGraphNodes) + ")");
      }
      graph.emplace(nodes);
      continue;
    }
    std::uint64_t a = 0, b = 0, cost = 0;
    if (!(fields >> a >> b >> cost)) fail("expected '<a> <b> <cost>'");
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
