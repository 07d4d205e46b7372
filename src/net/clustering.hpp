// Metric-space clustering of servers into regions.
//
// The paper's future-work section proposes "regional autonomous,
// self-governed and self-repairing mechanisms ... regional or hierarchical
// mechanisms".  The regional mechanism (src/core/regional.hpp) needs a
// partition of the servers into latency-coherent regions; this module
// provides k-medoids (PAM-style) over the metric closure — medoids double
// as the natural hosts for the regional decision bodies.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/shortest_paths.hpp"

namespace agtram::net {

struct Clustering {
  /// region id of every node, in [0, medoids.size()).
  std::vector<std::uint32_t> assignment;
  /// the medoid node of each region (the regional centre).
  std::vector<NodeId> medoids;
  /// sum over nodes of the distance to their medoid.
  double total_within_distance = 0.0;
  /// Full-graph distances from every node to each medoid, one strip per
  /// region (cluster_servers_sampled only; null from cluster_servers).
  /// Shared and immutable, so TiledDistances adopts them without a copy.
  std::shared_ptr<const std::vector<std::vector<Cost>>> centre_strips;

  std::size_t region_count() const noexcept { return medoids.size(); }

  /// Members of one region, sorted ascending.
  std::vector<NodeId> members(std::uint32_t region) const;
};

struct ClusteringConfig {
  std::uint32_t regions = 4;
  std::uint32_t max_iterations = 32;  ///< PAM refinement sweeps
  std::uint64_t seed = 1;             ///< initial medoid choice
};

/// k-medoids over the metric closure.  Deterministic in the config; clamps
/// the region count to the node count.  Throws on zero regions.
Clustering cluster_servers(const DistanceMatrix& distances,
                           const ClusteringConfig& config);

struct SampledClusteringConfig {
  std::uint32_t regions = 8;
  std::uint64_t seed = 1;
  /// Medoid-refinement sweeps after the initial assignment (each sweep is
  /// sampled per-region candidate scoring plus one full-graph Dijkstra per
  /// region whose medoid moved).
  std::uint32_t refine_iterations = 2;
  /// Hard cap on members per region; 0 leaves regions uncapped.  A cap
  /// bounds the per-region distance-block footprint on skewed topologies
  /// (clamped up to ceil(n/k) so the assignment always stays feasible).
  std::uint32_t max_members = 0;
};

/// Closure-free k-medoids for large M: clusters directly on the graph with
/// one single-source Dijkstra strip per medoid instead of the O(M^2) metric
/// closure, recomputing a strip only when its medoid moves; the final
/// strips are returned as Clustering::centre_strips.  Assignment is
/// capacitated greedy in ascending node order (medoids pinned to their own
/// region; ties to the lowest region id), so the result is deterministic
/// in the config.  Medoid refinement scores a sampled candidate set per
/// region against min(region-subgraph distance, route via the incumbent
/// centre).  Throws on zero regions.
Clustering cluster_servers_sampled(const Graph& graph,
                                   const SampledClusteringConfig& config);

}  // namespace agtram::net
