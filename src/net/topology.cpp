#include "net/topology.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace agtram::net {

using common::Rng;

namespace {

/// TransitStub: transit-core nodes (at most half the graph); each sponsors
/// kStubDomainsPerTransit stub domains, which share the other nodes.
constexpr std::uint32_t kTransitNodes = 8;
constexpr std::uint32_t kStubDomainsPerTransit = 3;

Cost draw_cost(Rng& rng, const TopologyConfig& cfg, double scale = 1.0) {
  const auto span = static_cast<std::uint64_t>(cfg.max_cost - cfg.min_cost);
  const Cost base = cfg.min_cost + static_cast<Cost>(rng.below(span + 1));
  const double scaled = std::max(1.0, std::round(static_cast<double>(base) * scale));
  return static_cast<Cost>(scaled);
}

/// GT-ITM "pure random": G(M, P(edge = p)).
Graph flat_random(const TopologyConfig& cfg, Rng& rng) {
  Graph g(cfg.nodes);
  for (NodeId a = 0; a < cfg.nodes; ++a) {
    for (NodeId b = a + 1; b < cfg.nodes; ++b) {
      if (rng.chance(cfg.edge_probability)) {
        g.add_edge(a, b, draw_cost(rng, cfg));
      }
    }
  }
  return g;
}

/// Waxman on a unit square; link cost scales with Euclidean distance, the
/// paper's "distance reverse-mapped to the cost of transmitting 1 kB".
Graph waxman(const TopologyConfig& cfg, Rng& rng) {
  Graph g(cfg.nodes);
  std::vector<double> x(cfg.nodes), y(cfg.nodes);
  for (NodeId i = 0; i < cfg.nodes; ++i) {
    x[i] = rng.uniform();
    y[i] = rng.uniform();
  }
  const double max_dist = std::sqrt(2.0);
  for (NodeId a = 0; a < cfg.nodes; ++a) {
    for (NodeId b = a + 1; b < cfg.nodes; ++b) {
      const double d = std::hypot(x[a] - x[b], y[a] - y[b]);
      const double p =
          cfg.waxman_alpha * std::exp(-d / (cfg.waxman_beta * max_dist));
      if (rng.chance(p)) {
        g.add_edge(a, b, draw_cost(rng, cfg, 0.5 + d / max_dist));
      }
    }
  }
  return g;
}

/// GT-ITM transit-stub: a clique-ish transit core; each transit node
/// sponsors stub domains (small dense clusters).  Transit links cost more
/// than stub links, giving the hierarchical cost structure of the Internet.
Graph transit_stub(const TopologyConfig& cfg, Rng& rng) {
  const std::uint32_t transit =
      std::max<std::uint32_t>(2, std::min(kTransitNodes, cfg.nodes / 2));
  Graph g(cfg.nodes);

  // Transit core: random graph with high connectivity and expensive links.
  for (NodeId a = 0; a < transit; ++a) {
    for (NodeId b = a + 1; b < transit; ++b) {
      if (rng.chance(0.6)) g.add_edge(a, b, draw_cost(rng, cfg, 3.0));
    }
  }

  // Distribute the remaining nodes into stub domains hanging off transit
  // nodes round-robin.
  const std::uint32_t stubs = cfg.nodes - transit;
  const std::uint32_t domains =
      std::max<std::uint32_t>(1, transit * kStubDomainsPerTransit);
  std::vector<std::vector<NodeId>> domain_members(domains);
  for (std::uint32_t s = 0; s < stubs; ++s) {
    domain_members[s % domains].push_back(transit + s);
  }
  for (std::uint32_t d = 0; d < domains; ++d) {
    const auto& members = domain_members[d];
    if (members.empty()) continue;
    // Gateway link into the sponsoring transit node (medium cost).
    const NodeId gateway = static_cast<NodeId>(d % transit);
    g.add_edge(members.front(), gateway, draw_cost(rng, cfg, 2.0));
    // Dense cheap intra-domain mesh.
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        if (rng.chance(0.7)) {
          g.add_edge(members[i], members[j], draw_cost(rng, cfg, 1.0));
        }
      }
    }
  }
  return g;
}

/// Inet-style AS topology: Barabási–Albert preferential attachment.
Graph power_law(const TopologyConfig& cfg, Rng& rng) {
  const std::uint32_t m = std::max<std::uint32_t>(1, cfg.attachment_edges);
  Graph g(cfg.nodes);
  // Repeated-node trick: targets proportional to degree.
  std::vector<NodeId> endpoint_pool;
  const std::uint32_t seed_nodes = std::min(cfg.nodes, m + 1);
  for (NodeId a = 0; a < seed_nodes; ++a) {
    for (NodeId b = a + 1; b < seed_nodes; ++b) {
      g.add_edge(a, b, draw_cost(rng, cfg));
      endpoint_pool.push_back(a);
      endpoint_pool.push_back(b);
    }
  }
  for (NodeId v = seed_nodes; v < cfg.nodes; ++v) {
    std::uint32_t added = 0;
    std::uint32_t attempts = 0;
    while (added < m && attempts < 16 * m) {
      ++attempts;
      const NodeId target =
          endpoint_pool[rng.below(endpoint_pool.size())];
      if (target == v || g.has_edge(v, target)) continue;
      g.add_edge(v, target, draw_cost(rng, cfg));
      endpoint_pool.push_back(v);
      endpoint_pool.push_back(target);
      ++added;
    }
    if (added == 0) {
      // Degenerate fallback: attach to a uniformly random earlier node.
      const NodeId target = static_cast<NodeId>(rng.below(v));
      g.add_edge(v, target, draw_cost(rng, cfg));
      endpoint_pool.push_back(v);
      endpoint_pool.push_back(target);
    }
  }
  return g;
}

/// Tree family (Benoit–Rehn–Robert's setting): exactly n-1 edges, connected
/// by construction, so the metric closure equals the unique tree-path
/// distances — what baselines::tree_placement's ancestor DP relies on.
Graph tree(const TopologyConfig& cfg, Rng& rng) {
  Graph g(cfg.nodes);
  switch (cfg.tree_shape) {
    case TreeShape::Random:
      // Uniform recursive tree.
      for (NodeId v = 1; v < cfg.nodes; ++v) {
        g.add_edge(v, static_cast<NodeId>(rng.below(v)), draw_cost(rng, cfg));
      }
      break;
    case TreeShape::Balanced: {
      const std::uint32_t arity = std::max<std::uint32_t>(1, cfg.tree_arity);
      for (NodeId v = 1; v < cfg.nodes; ++v) {
        g.add_edge(v, (v - 1) / arity, draw_cost(rng, cfg));
      }
      break;
    }
    case TreeShape::Caterpillar: {
      // Spine of ceil(n/2) nodes; the rest hang off it round-robin.
      const NodeId spine = (cfg.nodes + 1) / 2;
      for (NodeId v = 1; v < spine; ++v) {
        g.add_edge(v, v - 1, draw_cost(rng, cfg));
      }
      for (NodeId v = spine; v < cfg.nodes; ++v) {
        g.add_edge(v, (v - spine) % spine, draw_cost(rng, cfg));
      }
      break;
    }
  }
  return g;
}

}  // namespace

TopologyKind parse_topology_kind(const std::string& name) {
  if (name == "random" || name == "flat-random" || name == "gt-itm") {
    return TopologyKind::FlatRandom;
  }
  if (name == "waxman") return TopologyKind::Waxman;
  if (name == "transit-stub" || name == "ts") return TopologyKind::TransitStub;
  if (name == "power-law" || name == "inet" || name == "ba") {
    return TopologyKind::PowerLaw;
  }
  if (name == "tree" || name == "tree-balanced" || name == "tree-caterpillar") {
    return TopologyKind::Tree;
  }
  throw std::invalid_argument("unknown topology kind: " + name);
}

std::string to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::FlatRandom: return "random";
    case TopologyKind::Waxman: return "waxman";
    case TopologyKind::TransitStub: return "transit-stub";
    case TopologyKind::PowerLaw: return "power-law";
    case TopologyKind::Tree: return "tree";
  }
  return "?";
}

Graph generate_topology(const TopologyConfig& cfg) {
  if (cfg.nodes == 0) throw std::invalid_argument("topology needs >= 1 node");
  if (cfg.min_cost == 0 || cfg.min_cost > cfg.max_cost) {
    throw std::invalid_argument("require 0 < min_cost <= max_cost");
  }
  if (cfg.kind == TopologyKind::FlatRandom &&
      (cfg.edge_probability <= 0.0 || cfg.edge_probability > 1.0)) {
    throw std::invalid_argument("edge_probability must be in (0, 1]");
  }

  Rng rng(cfg.seed);
  Graph g = [&] {
    switch (cfg.kind) {
      case TopologyKind::FlatRandom: return flat_random(cfg, rng);
      case TopologyKind::Waxman: return waxman(cfg, rng);
      case TopologyKind::TransitStub: return transit_stub(cfg, rng);
      case TopologyKind::PowerLaw: return power_law(cfg, rng);
      case TopologyKind::Tree: return tree(cfg, rng);
    }
    throw std::logic_error("unreachable");
  }();
  g.make_connected(cfg.max_cost);
  assert(g.connected());
  return g;
}

}  // namespace agtram::net
