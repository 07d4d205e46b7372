// Tests for topology statistics — the measurements substantiating the
// GT-ITM / Inet substitution claims.
#include <gtest/gtest.h>

#include "net/graph_stats.hpp"
#include "net/topology.hpp"

namespace {

using namespace agtram::net;

TEST(GraphStats, DegreeStatsOnHandGraph) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(0, 2, 1);
  g.add_edge(0, 3, 1);
  const DegreeStats stats = degree_stats(g);
  EXPECT_DOUBLE_EQ(stats.mean, 1.5);  // degrees 3,1,1,1
  EXPECT_EQ(stats.min, 1u);
  EXPECT_EQ(stats.max, 3u);
  ASSERT_EQ(stats.histogram.size(), 4u);
  EXPECT_EQ(stats.histogram[1], 3u);
  EXPECT_EQ(stats.histogram[3], 1u);
}

TEST(GraphStats, ClusteringCoefficientTriangleAndStar) {
  Graph triangle(3);
  triangle.add_edge(0, 1, 1);
  triangle.add_edge(1, 2, 1);
  triangle.add_edge(0, 2, 1);
  EXPECT_DOUBLE_EQ(clustering_coefficient(triangle), 1.0);

  Graph star(4);
  star.add_edge(0, 1, 1);
  star.add_edge(0, 2, 1);
  star.add_edge(0, 3, 1);
  EXPECT_DOUBLE_EQ(clustering_coefficient(star), 0.0);
}

TEST(GraphStats, FlatRandomMeanDegreeTracksProbability) {
  TopologyConfig cfg;
  cfg.nodes = 200;
  cfg.edge_probability = 0.3;
  cfg.seed = 5;
  const Graph g = generate_topology(cfg);
  const DegreeStats stats = degree_stats(g);
  // E[degree] = p * (M - 1) = 59.7.
  EXPECT_NEAR(stats.mean, 0.3 * 199.0, 4.0);
}

TEST(GraphStats, PowerLawDegreeDistributionHasNegativeSlope) {
  TopologyConfig cfg;
  cfg.kind = TopologyKind::PowerLaw;
  cfg.nodes = 600;
  cfg.seed = 6;
  const Graph g = generate_topology(cfg);
  const double slope = degree_power_law_slope(g);
  // Preferential attachment: count(degree) ~ degree^-3-ish; the fit is
  // noisy, but it must be clearly negative and steep.
  EXPECT_LT(slope, -1.0);
}

TEST(GraphStats, FlatRandomIsNotPowerLaw) {
  TopologyConfig cfg;
  cfg.nodes = 400;
  cfg.edge_probability = 0.2;
  cfg.seed = 7;
  const Graph g = generate_topology(cfg);
  // Binomial degrees concentrate around the mean; a log-log "slope" over
  // the narrow degree band is meaningless but certainly not steeply
  // negative across orders of magnitude like the power-law case.
  const DegreeStats stats = degree_stats(g);
  EXPECT_LT(stats.max, stats.mean * 2.0);
  TopologyConfig pl = cfg;
  pl.kind = TopologyKind::PowerLaw;
  const Graph h = generate_topology(pl);
  EXPECT_GT(degree_stats(h).max, degree_stats(h).mean * 4.0);
}

TEST(GraphStats, MeanEdgeCostWithinConfiguredBand) {
  TopologyConfig cfg;
  cfg.nodes = 80;
  cfg.seed = 8;
  const Graph g = generate_topology(cfg);
  const double mean = mean_edge_cost(g);
  EXPECT_GE(mean, static_cast<double>(kMinCost));
  EXPECT_LE(mean, static_cast<double>(kMaxCost));
  EXPECT_NEAR(mean, (kMinCost + kMaxCost) / 2.0, 0.5);
}

TEST(GraphStats, TransitStubClustersMoreThanRandom) {
  TopologyConfig ts;
  ts.kind = TopologyKind::TransitStub;
  ts.nodes = 200;
  ts.seed = 9;
  TopologyConfig rnd;
  rnd.nodes = 200;
  rnd.edge_probability = 0.05;
  rnd.seed = 9;
  // Dense intra-domain meshes give transit-stub high local clustering.
  EXPECT_GT(clustering_coefficient(generate_topology(ts)),
            clustering_coefficient(generate_topology(rnd)));
}

}  // namespace
