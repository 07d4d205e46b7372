#include "net/tiled_distances.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace agtram::net {

namespace {

/// Path cost through the region centre, saturating at kUnreachable.
Cost routed_via_centre(Cost to_centre_a, Cost to_centre_b) {
  if (to_centre_a == kUnreachable || to_centre_b == kUnreachable) {
    return kUnreachable;
  }
  const std::uint64_t sum = static_cast<std::uint64_t>(to_centre_a) +
                            static_cast<std::uint64_t>(to_centre_b);
  return sum >= kUnreachable ? kUnreachable : static_cast<Cost>(sum);
}

}  // namespace

std::uint64_t TiledDistances::estimate_bytes(const Clustering& clustering) {
  const std::size_t n = clustering.assignment.size();
  const std::size_t k = clustering.region_count();
  std::vector<std::uint64_t> counts(k, 0);
  for (const std::uint32_t region : clustering.assignment) counts[region] += 1;
  std::uint64_t bytes = 0;
  for (const std::uint64_t n_r : counts) {
    const std::uint64_t side = n_r + k;
    bytes += side * side * sizeof(Cost);
  }
  bytes += static_cast<std::uint64_t>(k) * n * sizeof(Cost);
  return bytes;
}

TiledDistances TiledDistances::build(const Graph& graph,
                                     const Clustering& clustering) {
  const std::size_t k = clustering.region_count();
  const auto& strips = clustering.centre_strips;
  if (strips == nullptr) {
    throw std::invalid_argument(
        "TiledDistances::build: clustering carries no centre strips");
  }
  if (strips->size() != k ||
      std::any_of(strips->begin(), strips->end(), [&](const auto& strip) {
        return strip.size() != graph.node_count();
      })) {
    throw std::invalid_argument(
        "TiledDistances::build: centre strips do not match the graph");
  }
  TiledDistances tiles;
  tiles.members_.resize(k);
  tiles.blocks_.resize(k);
  tiles.strips_ = strips;
  for (NodeId node = 0; node < clustering.assignment.size(); ++node) {
    tiles.members_[clustering.assignment[node]].push_back(node);
  }

  constexpr std::uint32_t kNoLocal = std::numeric_limits<std::uint32_t>::max();
  common::ThreadPool::shared().parallel_for(
      0, k,
      [&](std::size_t rb, std::size_t re) {
        for (std::size_t r = rb; r < re; ++r) {
          const std::vector<NodeId>& mem = tiles.members_[r];
          const std::size_t n = mem.size();
          const std::size_t side = n + k;
          const std::span<const Cost> own = tiles.centre_strip(r);

          std::vector<std::uint32_t> local(graph.node_count(), kNoLocal);
          for (std::uint32_t i = 0; i < n; ++i) local[mem[i]] = i;
          Graph sub(std::max<std::size_t>(n, 1));
          for (const NodeId node : mem) {
            for (const Edge& edge : graph.neighbors(node)) {
              if (edge.to > node && local[edge.to] != kNoLocal) {
                sub.add_edge(local[node], local[edge.to], edge.cost);
              }
            }
          }

          std::vector<Cost> rows(side * side, 0);
          for (std::uint32_t la = 0; la < n; ++la) {
            const NodeId ga = mem[la];
            const std::vector<Cost> subd = dijkstra(sub, la);
            Cost* row = rows.data() + static_cast<std::size_t>(la) * side;
            for (std::uint32_t lb = 0; lb < n; ++lb) {
              row[lb] = std::min(subd[lb],
                                 routed_via_centre(own[ga], own[mem[lb]]));
            }
            for (std::uint32_t q = 0; q < k; ++q) {
              row[n + q] = tiles.centre_strip(q)[ga];
            }
          }
          for (std::uint32_t q = 0; q < k; ++q) {
            Cost* row = rows.data() + (n + q) * side;
            const std::span<const Cost> strip = tiles.centre_strip(q);
            for (std::uint32_t lb = 0; lb < n; ++lb) row[lb] = strip[mem[lb]];
            for (std::uint32_t p = 0; p < k; ++p) {
              row[n + p] = strip[clustering.medoids[p]];
            }
          }
          tiles.blocks_[r] = std::make_shared<const DistanceMatrix>(
              DistanceMatrix::from_rows(side, std::move(rows)));
        }
      },
      1);

  tiles.bytes_ = estimate_bytes(clustering);
  return tiles;
}

}  // namespace agtram::net
