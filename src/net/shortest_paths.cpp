#include "net/shortest_paths.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/thread_pool.hpp"

namespace agtram::net {

namespace {

/// Monotone radix heap over uint32 keys (Ahuja, Mehlhorn, Orlin and Tarjan,
/// JACM 1990).  Valid for Dijkstra because every pushed key is at least the
/// last popped one.  Bucket 0 holds keys equal to the last popped key and
/// bucket b >= 1 those whose highest bit differing from it is bit b - 1, so
/// a pop that finds bucket 0 empty redistributes one bucket into strictly
/// lower ones.  Each item moves down at most 32 times.
/// Items pack (key << 32 | node), so the minimum is one integer compare.
class RadixHeap {
 public:
  bool empty() const noexcept { return nonempty_ == 0; }

  void push(Cost key, NodeId node) { put((std::uint64_t{key} << 32) | node); }

  /// Pops an item of minimum key; returns (key, node).
  std::pair<Cost, NodeId> pop() {
    if (buckets_[0].empty()) {
      // The lowest non-empty bucket holds the minimum; it becomes the new
      // reference key and the bucket's items all move strictly down.
      const int b = std::countr_zero(nonempty_);
      std::vector<std::uint64_t>& from = buckets_[b];
      last_ = static_cast<Cost>(*std::min_element(from.begin(), from.end()) >>
                                32);
      for (const std::uint64_t item : from) put(item);
      from.clear();
      nonempty_ &= ~(std::uint64_t{1} << b);
    }
    const std::uint64_t item = buckets_[0].back();
    buckets_[0].pop_back();
    if (buckets_[0].empty()) nonempty_ &= ~std::uint64_t{1};
    return {static_cast<Cost>(item >> 32), static_cast<NodeId>(item)};
  }

  /// Empties the heap and resets the reference key, keeping the buckets'
  /// capacity for the next run.
  void reset() {
    for (auto& bucket : buckets_) bucket.clear();
    nonempty_ = 0;
    last_ = 0;
  }

 private:
  void put(std::uint64_t item) {
    const int b = std::bit_width(static_cast<Cost>(item >> 32) ^ last_);
    buckets_[b].push_back(item);
    nonempty_ |= std::uint64_t{1} << b;
  }

  std::array<std::vector<std::uint64_t>, 33> buckets_;
  std::uint64_t nonempty_ = 0;  ///< bit b set iff buckets_[b] is non-empty
  Cost last_ = 0;               ///< last popped key
};

/// Mean over distinct pairs from the full-matrix entry sum.  The matrix is
/// symmetric with a zero diagonal, so the upper-triangle sum is half the
/// total; integer sums are exact, matching a direct double accumulation of
/// the triangle for any realistic matrix (triangle sums below 2^53).
double mean_from_total(std::size_t nodes, std::uint64_t total) {
  if (nodes < 2) return 0.0;
  const double pairs =
      static_cast<double>(nodes) * static_cast<double>(nodes - 1) / 2.0;
  return static_cast<double>(total / 2) / pairs;
}

}  // namespace

std::vector<Cost> dijkstra(const Graph& graph, NodeId source) {
  std::vector<Cost> dist(graph.node_count(), kUnreachable);
  // One heap per thread: its buckets keep their capacity across the many
  // small region-subgraph runs of the tiled partition.
  thread_local RadixHeap heap;
  heap.reset();
  // Nodes offered a path cost >= kUnreachable.  Such a node is only a
  // refusal if no cheaper path settles it later.
  std::vector<NodeId> overflowed;
  dist[source] = 0;
  heap.push(0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.pop();
    if (d != dist[u]) continue;  // stale entry
    for (const Edge& e : graph.neighbors(u)) {
      const std::uint64_t candidate = std::uint64_t{d} + e.cost;
      if (candidate >= kUnreachable) [[unlikely]] {
        overflowed.push_back(e.to);
      } else if (candidate < dist[e.to]) {
        dist[e.to] = static_cast<Cost>(candidate);
        heap.push(static_cast<Cost>(candidate), e.to);
      }
    }
  }
  for (const NodeId node : overflowed) {
    if (dist[node] == kUnreachable) {
      throw std::overflow_error(
          "dijkstra: shortest path cost from source " + std::to_string(source) +
          " to node " + std::to_string(node) + " does not fit in 32 bits");
    }
  }
  return dist;
}

DistanceMatrix DistanceMatrix::compute(const Graph& graph) {
  const std::size_t n = graph.node_count();
  std::vector<Cost> data(n * n, kUnreachable);
  // Per-row partials folded into the fill pass: each source's Dijkstra row
  // is scanned once, right after it is written, for reachability plus the
  // row's max and sum — the former O(n^2) serial validation sweep and the
  // separate diameter()/mean_distance() walks disappear into this loop.
  std::vector<Cost> row_max(n, 0);
  std::vector<std::uint64_t> row_sum(n, 0);
  std::atomic<bool> disconnected{false};
  common::ThreadPool::shared().parallel_for(
      0, n,
      [&](std::size_t first, std::size_t last) {
        for (std::size_t src = first; src < last; ++src) {
          const auto row = dijkstra(graph, static_cast<NodeId>(src));
          std::copy(row.begin(), row.end(), data.begin() + src * n);
          Cost max = 0;
          std::uint64_t sum = 0;
          for (const Cost c : row) {
            max = std::max(max, c);
            sum += c;
          }
          row_max[src] = max;
          row_sum[src] = sum;
          if (max == kUnreachable) {
            disconnected.store(true, std::memory_order_relaxed);
          }
        }
      },
      /*min_grain=*/1);
  if (disconnected.load(std::memory_order_relaxed)) {
    throw std::runtime_error("DistanceMatrix::compute: graph is disconnected");
  }
  Cost diameter = 0;
  std::uint64_t total = 0;
  for (std::size_t src = 0; src < n; ++src) {
    diameter = std::max(diameter, row_max[src]);
    total += row_sum[src];
  }
  return DistanceMatrix(n, std::move(data), diameter,
                        mean_from_total(n, total));
}

DistanceMatrix DistanceMatrix::from_rows(std::size_t nodes,
                                         std::vector<Cost> rows) {
  if (rows.size() != nodes * nodes) {
    throw std::invalid_argument("from_rows: size mismatch");
  }
  Cost diameter = 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    if (rows[i * nodes + i] != 0) {
      throw std::invalid_argument("from_rows: non-zero diagonal");
    }
    for (std::size_t j = 0; j < nodes; ++j) {
      const Cost c = rows[i * nodes + j];
      if (c != rows[j * nodes + i]) {
        throw std::invalid_argument("from_rows: asymmetric matrix");
      }
      diameter = std::max(diameter, c);
      total += c;
    }
  }
  return DistanceMatrix(nodes, std::move(rows), diameter,
                        mean_from_total(nodes, total));
}

}  // namespace agtram::net
