// Unit tests for src/net: graph primitives, topology generators, and the
// shortest-path metric closure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "net/graph.hpp"
#include "net/graph_io.hpp"
#include "net/shortest_paths.hpp"
#include "net/topology.hpp"

namespace {

using namespace agtram::net;

// --------------------------------------------------------------- graph

TEST(GraphTest, AddEdgeIsUndirected) {
  Graph g(3);
  g.add_edge(0, 2, 5);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 0u);
}

TEST(GraphTest, SelfLoopIgnored) {
  Graph g(2);
  g.add_edge(1, 1, 3);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(GraphTest, ParallelEdgeKeepsCheaper) {
  Graph g(2);
  g.add_edge(0, 1, 9);
  g.add_edge(0, 1, 4);
  g.add_edge(0, 1, 7);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.neighbors(0)[0].cost, 4u);
  EXPECT_EQ(g.neighbors(1)[0].cost, 4u);
}

TEST(GraphTest, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(2, 3, 1);
  EXPECT_FALSE(g.connected());
  g.add_edge(1, 2, 1);
  EXPECT_TRUE(g.connected());
}

TEST(GraphTest, MakeConnectedPatchesComponents) {
  Graph g(6);
  g.add_edge(0, 1, 1);
  g.add_edge(2, 3, 1);
  // nodes 4, 5 are isolated singletons
  const std::size_t added = g.make_connected(7);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(added, 3u);  // 4 components -> 3 patch edges
}

TEST(GraphTest, MakeConnectedOnConnectedGraphIsNoop) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  EXPECT_EQ(g.make_connected(5), 0u);
  EXPECT_EQ(g.edge_count(), 2u);
}

// ------------------------------------------------------------ dijkstra

TEST(Dijkstra, HandComputedDistances) {
  //   0 --1-- 1 --1-- 2
  //    \------5------/
  Graph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(0, 2, 5);
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], 2u);  // via node 1, not the direct 5-cost edge
}

TEST(Dijkstra, UnreachableNodes) {
  Graph g(3);
  g.add_edge(0, 1, 2);
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[2], kUnreachable);
}

/// Floyd–Warshall in 64 bits: the reference every Dijkstra row must equal,
/// with kUnreachable where no path exists.
std::vector<std::vector<Cost>> floyd_warshall(const Graph& g) {
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  const std::size_t n = g.node_count();
  std::vector<std::vector<std::uint64_t>> d(
      n, std::vector<std::uint64_t>(n, kInf));
  for (NodeId u = 0; u < n; ++u) {
    d[u][u] = 0;
    for (const Edge& e : g.neighbors(u)) d[u][e.to] = e.cost;
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (d[i][k] == kInf) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (d[k][j] != kInf) d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  std::vector<std::vector<Cost>> out(n, std::vector<Cost>(n, kUnreachable));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (d[i][j] != kInf) out[i][j] = static_cast<Cost>(d[i][j]);
    }
  }
  return out;
}

/// The same edges as `g`, each with a fresh cost drawn from [1, 2^20].
Graph with_random_costs(const Graph& g, std::uint64_t seed) {
  agtram::common::Rng rng(seed);
  Graph out(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const Edge& e : g.neighbors(u)) {
      if (e.to > u) {
        out.add_edge(u, e.to, static_cast<Cost>(1 + rng.below(1u << 20)));
      }
    }
  }
  return out;
}

TEST(Dijkstra, MatchesFloydWarshallOnEveryTopology) {
  for (const TopologyKind kind :
       {TopologyKind::FlatRandom, TopologyKind::Waxman,
        TopologyKind::TransitStub, TopologyKind::PowerLaw,
        TopologyKind::Tree}) {
    SCOPED_TRACE(to_string(kind));
    TopologyConfig cfg;
    cfg.kind = kind;
    cfg.nodes = 72;
    cfg.edge_probability = 0.1;
    cfg.seed = 19;
    const Graph g = with_random_costs(generate_topology(cfg), 5);
    const auto reference = floyd_warshall(g);
    for (NodeId src = 0; src < g.node_count(); ++src) {
      ASSERT_EQ(dijkstra(g, src), reference[src]) << "source " << src;
    }
  }
}

TEST(Dijkstra, MatchesFloydWarshallOnDisconnectedGraph) {
  // Two components plus an isolated node.
  Graph g(9);
  for (const auto& [a, b] : {std::pair{0, 1}, {1, 2}, {2, 3}, {0, 3}, {1, 3},
                            {4, 5}, {5, 6}, {6, 7}, {4, 7}}) {
    g.add_edge(a, b, 1);
  }
  g = with_random_costs(g, 11);
  const auto reference = floyd_warshall(g);
  for (NodeId src = 0; src < g.node_count(); ++src) {
    ASSERT_EQ(dijkstra(g, src), reference[src]) << "source " << src;
  }
  EXPECT_EQ(reference[0][4], kUnreachable);
  EXPECT_EQ(reference[8][0], kUnreachable);
}

TEST(Dijkstra, PathCostThatDoesNotFitIsRefused) {
  // Each link fits in 32 bits; the two-link path from node 0 does not.
  std::istringstream file("nodes 3\n0 1 3000000000\n1 2 3000000000\n");
  const Graph g = read_graph(file);
  try {
    dijkstra(g, 0);
    FAIL() << "expected std::overflow_error";
  } catch (const std::overflow_error& e) {
    EXPECT_NE(std::string(e.what()).find("source 0"), std::string::npos)
        << e.what();
  }
  // From the middle node every path is one link: nothing to refuse.
  EXPECT_EQ(dijkstra(g, 1), (std::vector<Cost>{3000000000u, 0, 3000000000u}));
  // The closure runs its sources on the pool; the refusal reaches the caller.
  EXPECT_THROW(DistanceMatrix::compute(g), std::overflow_error);
}

TEST(Dijkstra, LargestFittingPathAndOverflowingDetourAreKept) {
  // 0 -> 1 -> 2 costs 2^32 - 2, the largest finite distance.  The path
  // 0 -> 3 -> 2 costs exactly kUnreachable, so it is never a candidate, but
  // node 2 is settled through node 1 and nothing is refused.
  Graph g(4);
  g.add_edge(0, 1, 2147483647u);
  g.add_edge(1, 2, 2147483647u);
  g.add_edge(0, 3, 2147483647u);
  g.add_edge(3, 2, 2147483648u);
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d, (std::vector<Cost>{0, 2147483647u, 4294967294u, 2147483647u}));
}

// ----------------------------------------------------- distance matrix

TEST(DistanceMatrixTest, MatchesDijkstraRows) {
  TopologyConfig cfg;
  cfg.nodes = 40;
  cfg.edge_probability = 0.2;
  cfg.seed = 5;
  const Graph g = generate_topology(cfg);
  const DistanceMatrix dm = DistanceMatrix::compute(g);
  for (NodeId src : {NodeId{0}, NodeId{17}, NodeId{39}}) {
    const auto row = dijkstra(g, src);
    for (NodeId j = 0; j < 40; ++j) EXPECT_EQ(dm(src, j), row[j]);
  }
}

TEST(DistanceMatrixTest, MetricProperties) {
  TopologyConfig cfg;
  cfg.nodes = 30;
  cfg.seed = 6;
  const Graph g = generate_topology(cfg);
  const DistanceMatrix dm = DistanceMatrix::compute(g);
  for (NodeId i = 0; i < 30; ++i) {
    EXPECT_EQ(dm(i, i), 0u);
    for (NodeId j = 0; j < 30; ++j) {
      EXPECT_EQ(dm(i, j), dm(j, i));  // symmetry
      for (NodeId k = 0; k < 30; ++k) {
        EXPECT_LE(dm(i, j), dm(i, k) + dm(k, j));  // triangle inequality
      }
    }
  }
}

TEST(DistanceMatrixTest, DisconnectedGraphThrows) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  EXPECT_THROW(DistanceMatrix::compute(g), std::runtime_error);
}

TEST(DistanceMatrixTest, FromRowsValidation) {
  EXPECT_NO_THROW(DistanceMatrix::from_rows(2, {0, 3, 3, 0}));
  EXPECT_THROW(DistanceMatrix::from_rows(2, {0, 3, 3}), std::invalid_argument);
  EXPECT_THROW(DistanceMatrix::from_rows(2, {1, 3, 3, 0}),
               std::invalid_argument);  // non-zero diagonal
  EXPECT_THROW(DistanceMatrix::from_rows(2, {0, 3, 4, 0}),
               std::invalid_argument);  // asymmetric
}

TEST(DistanceMatrixTest, DiameterAndMean) {
  const DistanceMatrix dm = DistanceMatrix::from_rows(3, {0, 1, 3,  //
                                                          1, 0, 2,  //
                                                          3, 2, 0});
  EXPECT_EQ(dm.diameter(), 3u);
  EXPECT_NEAR(dm.mean_distance(), (1 + 3 + 2) / 3.0, 1e-12);
}

// ------------------------------------------------- topology generators

TEST(TopologyTest, ParseKindRoundTrip) {
  EXPECT_EQ(parse_topology_kind("random"), TopologyKind::FlatRandom);
  EXPECT_EQ(parse_topology_kind("waxman"), TopologyKind::Waxman);
  EXPECT_EQ(parse_topology_kind("transit-stub"), TopologyKind::TransitStub);
  EXPECT_EQ(parse_topology_kind("power-law"), TopologyKind::PowerLaw);
  EXPECT_EQ(parse_topology_kind("inet"), TopologyKind::PowerLaw);
  EXPECT_THROW(parse_topology_kind("mesh"), std::invalid_argument);
  for (auto kind : {TopologyKind::FlatRandom, TopologyKind::Waxman,
                    TopologyKind::TransitStub, TopologyKind::PowerLaw}) {
    EXPECT_EQ(parse_topology_kind(to_string(kind)), kind);
  }
}

class TopologyKindTest : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(TopologyKindTest, GeneratesConnectedGraphOfRequestedSize) {
  TopologyConfig cfg;
  cfg.kind = GetParam();
  cfg.nodes = 80;
  cfg.seed = 21;
  const Graph g = generate_topology(cfg);
  EXPECT_EQ(g.node_count(), 80u);
  EXPECT_TRUE(g.connected());
  EXPECT_GE(g.edge_count(), 79u);  // at least a spanning tree
}

TEST_P(TopologyKindTest, DeterministicInSeed) {
  TopologyConfig cfg;
  cfg.kind = GetParam();
  cfg.nodes = 50;
  cfg.seed = 33;
  const Graph a = generate_topology(cfg);
  const Graph b = generate_topology(cfg);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (NodeId i = 0; i < 50; ++i) {
    ASSERT_EQ(a.degree(i), b.degree(i));
    for (std::size_t e = 0; e < a.neighbors(i).size(); ++e) {
      EXPECT_EQ(a.neighbors(i)[e].to, b.neighbors(i)[e].to);
      EXPECT_EQ(a.neighbors(i)[e].cost, b.neighbors(i)[e].cost);
    }
  }
}

TEST_P(TopologyKindTest, DifferentSeedsDiffer) {
  TopologyConfig cfg;
  cfg.kind = GetParam();
  cfg.nodes = 60;
  cfg.seed = 1;
  const Graph a = generate_topology(cfg);
  cfg.seed = 2;
  const Graph b = generate_topology(cfg);
  bool differs = a.edge_count() != b.edge_count();
  for (NodeId i = 0; !differs && i < 60; ++i) {
    differs = a.degree(i) != b.degree(i);
  }
  EXPECT_TRUE(differs);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TopologyKindTest,
                         ::testing::Values(TopologyKind::FlatRandom,
                                           TopologyKind::Waxman,
                                           TopologyKind::TransitStub,
                                           TopologyKind::PowerLaw),
                         [](const auto& param_info) {
                           std::string name = to_string(param_info.param);
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Each generator at its defaults: edge count and summed edge cost, recorded
// before the generators' tuning knobs became constants.
TEST(TopologyTest, DefaultOutputsPinned) {
  struct Expected {
    TopologyKind kind;
    std::size_t edges;
    std::uint64_t total_cost;
  };
  const Expected cases[] = {
      {TopologyKind::FlatRandom, 2480, 13728},
      {TopologyKind::Waxman, 495, 2192},
      {TopologyKind::TransitStub, 139, 1096},
      {TopologyKind::PowerLaw, 197, 1078},
      {TopologyKind::Tree, 99, 567},
  };
  for (const Expected& want : cases) {
    TopologyConfig cfg;
    cfg.kind = want.kind;
    const Graph g = generate_topology(cfg);
    std::uint64_t total_cost = 0;
    for (NodeId u = 0; u < g.node_count(); ++u) {
      for (const Edge& e : g.neighbors(u)) {
        if (e.to > u) total_cost += e.cost;
      }
    }
    EXPECT_EQ(g.edge_count(), want.edges) << to_string(want.kind);
    EXPECT_EQ(total_cost, want.total_cost) << to_string(want.kind);
  }
}

TEST(TopologyTest, FlatRandomEdgeDensityTracksProbability) {
  TopologyConfig cfg;
  cfg.nodes = 100;
  cfg.seed = 4;
  for (double p : {0.4, 0.6, 0.8}) {
    cfg.edge_probability = p;
    const Graph g = generate_topology(cfg);
    const double max_edges = 100.0 * 99.0 / 2.0;
    const double density = static_cast<double>(g.edge_count()) / max_edges;
    EXPECT_NEAR(density, p, 0.05) << "p=" << p;
  }
}

TEST(TopologyTest, PowerLawHasHubs) {
  TopologyConfig cfg;
  cfg.kind = TopologyKind::PowerLaw;
  cfg.nodes = 300;
  cfg.seed = 12;
  const Graph g = generate_topology(cfg);
  std::size_t max_degree = 0;
  for (NodeId i = 0; i < 300; ++i) max_degree = std::max(max_degree, g.degree(i));
  // Preferential attachment should grow hubs far above the mean degree (~4).
  EXPECT_GE(max_degree, 20u);
}

TEST(TopologyTest, InvalidConfigsThrow) {
  TopologyConfig cfg;
  cfg.nodes = 0;
  EXPECT_THROW(generate_topology(cfg), std::invalid_argument);
  cfg.nodes = 10;
  cfg.edge_probability = 0.0;
  EXPECT_THROW(generate_topology(cfg), std::invalid_argument);
}

TEST(TopologyTest, CostsWithinConfiguredBand) {
  TopologyConfig cfg;
  cfg.nodes = 50;
  cfg.seed = 77;
  const Graph g = generate_topology(cfg);
  for (NodeId i = 0; i < 50; ++i) {
    for (const Edge& e : g.neighbors(i)) {
      EXPECT_GE(e.cost, kMinCost);
      EXPECT_LE(e.cost, kMaxCost);
    }
  }
}

}  // namespace
