// Topology serialisation: a plain edge-list format so generated networks
// can be persisted, inspected, and fed back into the tools (or replaced
// with externally measured topologies of the same shape).
//
// Format:
//   # comments
//   nodes <M>
//   <a> <b> <cost>          one line per undirected edge
#pragma once

#include <cstddef>
#include <iosfwd>

#include "net/graph.hpp"

namespace agtram::net {

/// The largest `nodes <M>` header read_graph accepts.  It stays inside the
/// 32-bit NodeId range, so every endpoint an edge line names fits a NodeId,
/// and covers 160x the M=100k tier.
inline constexpr std::size_t kMaxGraphNodes = std::size_t{1} << 24;

void write_graph(std::ostream& os, const Graph& graph);

/// Throws std::runtime_error, naming the line, on malformed input (a field
/// that is not one whole unsigned decimal, or an extra field), a node count
/// of 0 or above kMaxGraphNodes (refused before the graph is allocated),
/// out-of-range endpoints, or zero costs.
Graph read_graph(std::istream& is);

}  // namespace agtram::net
