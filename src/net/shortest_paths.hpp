// All-pairs shortest-path metric closure c(i,j).
//
// The DRP cost model (paper Equations 1-4) is defined over path costs, not
// links: "if the two servers are not directly connected ... the cost is given
// by the sum of the costs of all the links in a chosen path".  We
// materialise the full M x M matrix once (thread-parallel Dijkstra from each
// source) and share it read-only across every algorithm; at the paper's
// M = 3718 this is ~55 MB.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "net/graph.hpp"

namespace agtram::net {

inline constexpr Cost kUnreachable = std::numeric_limits<Cost>::max();

/// Single-source Dijkstra; returns distances (kUnreachable when disconnected).
/// Throws std::overflow_error, naming the source, when a reachable node's
/// shortest path cost does not fit below kUnreachable.
std::vector<Cost> dijkstra(const Graph& graph, NodeId source);

/// Immutable, row-major M x M distance matrix.
class DistanceMatrix {
 public:
  /// Computes the metric closure of `graph`, running sources in parallel on
  /// the shared thread pool.  Throws if the graph is disconnected, and
  /// std::overflow_error if a path cost does not fit (see dijkstra).
  static DistanceMatrix compute(const Graph& graph);

  /// Builds directly from a row-major matrix (tests / hand-made instances).
  /// Validates symmetry and a zero diagonal.
  static DistanceMatrix from_rows(std::size_t nodes, std::vector<Cost> rows);

  std::size_t node_count() const noexcept { return nodes_; }

  Cost operator()(NodeId a, NodeId b) const {
    return data_[static_cast<std::size_t>(a) * nodes_ + b];
  }

  /// Row `a` as a contiguous span: row(a)[b] == (*this)(a, b).  The matrix
  /// is symmetric, so hot loops that scan distances to a fixed node `a`
  /// should walk row(a) sequentially instead of striding down column `a`.
  std::span<const Cost> row(NodeId a) const {
    return {data_.data() + static_cast<std::size_t>(a) * nodes_, nodes_};
  }

  /// Largest pairwise distance (network diameter in cost units).  Cached at
  /// construction: both factories derive it from per-row partials folded
  /// into the pass that already visits every entry.
  Cost diameter() const noexcept { return diameter_; }

  /// Mean pairwise distance over distinct pairs, cached like diameter().
  /// Pairwise sums are exact in uint64, so the cached value equals the
  /// historical on-demand upper-triangle accumulation.
  double mean_distance() const noexcept { return mean_distance_; }

 private:
  DistanceMatrix(std::size_t nodes, std::vector<Cost> data, Cost diameter,
                 double mean_distance)
      : nodes_(nodes),
        data_(std::move(data)),
        diameter_(diameter),
        mean_distance_(mean_distance) {}

  std::size_t nodes_;
  std::vector<Cost> data_;
  Cost diameter_ = 0;
  double mean_distance_ = 0.0;
};

using DistanceMatrixPtr = std::shared_ptr<const DistanceMatrix>;

}  // namespace agtram::net
