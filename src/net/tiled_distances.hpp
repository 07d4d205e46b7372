// Tiled distance state for the large-M regional engine.
//
// The dense metric closure is O(M^2) and stops fitting in memory around
// M ~ 50k (a 50k x 50k Cost matrix is 10 GB).  The regional mechanism never
// needs it: a region's auction only prices member<->member transfers plus
// routes through the regional centres (cross-region coherence goes through
// the regional broadcast).  So we materialise, per region, a small
// DistanceMatrix "block" over the region's members plus one gateway node
// per region, and keep R full-graph Dijkstra strips (one per centre) for
// the gateway rows.  The strips are the clustering's own
// (Clustering::centre_strips), shared rather than recomputed:
//
//   * member a <-> member b   = min(region-subgraph distance,
//                                   route via own centre)
//   * member a <-> gateway q  = exact full-graph distance to centre q
//   * gateway q <-> gateway p = exact centre-to-centre distance
//
// Both member<->member terms are real path lengths, so blocks never
// undershoot the true metric.  Total footprint is sum_r (n_r + R)^2 + R*M
// Cost entries — estimate_bytes() lets callers enforce a budget before
// anything is materialised.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/clustering.hpp"
#include "net/graph.hpp"
#include "net/shortest_paths.hpp"

namespace agtram::net {

class TiledDistances {
 public:
  /// Footprint of the blocks + strips for this partition, in bytes, without
  /// building anything.  Exact for build() on the same clustering.
  static std::uint64_t estimate_bytes(const Clustering& clustering);

  /// Materialises the per-region blocks (regions in parallel on the shared
  /// pool) over the clustering's centre strips, which it shares.
  /// Deterministic in (graph, clustering).  Throws std::invalid_argument when
  /// the clustering carries no strips, or strips not sized to this graph.
  static TiledDistances build(const Graph& graph, const Clustering& clustering);

  TiledDistances() = default;

  std::size_t region_count() const noexcept { return members_.size(); }

  /// Members of region r, ascending global node ids.  Block-local id i maps
  /// to members(r)[i]; local ids [n_r, n_r + R) are the gateways, region q's
  /// gateway at local id n_r + q.
  const std::vector<NodeId>& members(std::uint32_t r) const {
    return members_[r];
  }

  /// The (n_r + R)-node distance block of region r.
  const DistanceMatrixPtr& block(std::uint32_t r) const { return blocks_[r]; }

  /// Full-graph distances from every node to centre r.
  std::span<const Cost> centre_strip(std::uint32_t r) const {
    return (*strips_)[r];
  }

  std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  std::vector<std::vector<NodeId>> members_;
  std::vector<DistanceMatrixPtr> blocks_;
  std::shared_ptr<const std::vector<std::vector<Cost>>> strips_;
  std::uint64_t bytes_ = 0;
};

}  // namespace agtram::net
