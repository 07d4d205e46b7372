#include "net/clustering.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "common/prng.hpp"
#include "common/thread_pool.hpp"

namespace agtram::net {

std::vector<NodeId> Clustering::members(std::uint32_t region) const {
  std::vector<NodeId> result;
  for (NodeId node = 0; node < assignment.size(); ++node) {
    if (assignment[node] == region) result.push_back(node);
  }
  return result;
}

namespace {

/// PAM refinement sweeps of cluster_servers (it stops earlier at a fixed
/// point).
constexpr std::uint32_t kMaxIterations = 32;

/// Sampled medoid candidates per region per refinement sweep (besides the
/// incumbent).
constexpr std::uint32_t kMedoidCandidates = 4;

/// Assigns every node to its nearest medoid; returns the within-distance.
double assign_all(const DistanceMatrix& d, const std::vector<NodeId>& medoids,
                  std::vector<std::uint32_t>& assignment) {
  double total = 0.0;
  for (NodeId node = 0; node < d.node_count(); ++node) {
    std::uint32_t best_region = 0;
    Cost best = kUnreachable;
    for (std::uint32_t r = 0; r < medoids.size(); ++r) {
      const Cost dist = d(node, medoids[r]);
      if (dist < best) {
        best = dist;
        best_region = r;
      }
    }
    assignment[node] = best_region;
    total += static_cast<double>(best);
  }
  return total;
}

/// Best medoid for a fixed member set: the member minimising the summed
/// distance to the others.
NodeId best_medoid(const DistanceMatrix& d, const std::vector<NodeId>& members) {
  NodeId best = members.front();
  double best_total = std::numeric_limits<double>::max();
  for (NodeId candidate : members) {
    double total = 0.0;
    for (NodeId other : members) {
      total += static_cast<double>(d(candidate, other));
    }
    if (total < best_total) {
      best_total = total;
      best = candidate;
    }
  }
  return best;
}

}  // namespace

Clustering cluster_servers(const DistanceMatrix& distances,
                           const ClusteringConfig& config) {
  if (config.regions == 0) {
    throw std::invalid_argument("cluster_servers: need >= 1 region");
  }
  const std::size_t n = distances.node_count();
  const std::uint32_t k =
      std::min<std::uint32_t>(config.regions, static_cast<std::uint32_t>(n));

  // Seed medoids: k distinct random nodes.
  common::Rng rng(config.seed);
  std::unordered_set<NodeId> chosen;
  while (chosen.size() < k) {
    chosen.insert(static_cast<NodeId>(rng.below(n)));
  }
  Clustering result;
  result.medoids.assign(chosen.begin(), chosen.end());
  std::sort(result.medoids.begin(), result.medoids.end());
  result.assignment.resize(n);
  result.total_within_distance =
      assign_all(distances, result.medoids, result.assignment);

  // Lloyd-style PAM refinement: recompute each region's medoid, reassign,
  // stop at a fixed point (or the iteration cap).
  for (std::uint32_t iter = 0; iter < kMaxIterations; ++iter) {
    bool changed = false;
    for (std::uint32_t r = 0; r < k; ++r) {
      const auto members = result.members(r);
      if (members.empty()) continue;  // region emptied out: keep old medoid
      const NodeId medoid = best_medoid(distances, members);
      if (medoid != result.medoids[r]) {
        result.medoids[r] = medoid;
        changed = true;
      }
    }
    const double total =
        assign_all(distances, result.medoids, result.assignment);
    if (!changed && total == result.total_within_distance) break;
    result.total_within_distance = total;
    if (!changed) break;
  }
  return result;
}

namespace {

/// Distance a candidate medoid offers a member: the better of the
/// region-subgraph path and the route through the incumbent centre (both
/// are real paths, so the score never undershoots the true distance).
std::uint64_t candidate_distance(Cost subgraph, Cost via_centre_a,
                                 Cost via_centre_b) {
  const std::uint64_t routed = static_cast<std::uint64_t>(via_centre_a) +
                               static_cast<std::uint64_t>(via_centre_b);
  return std::min<std::uint64_t>(subgraph, routed);
}

}  // namespace

Clustering cluster_servers_sampled(const Graph& graph,
                                   const SampledClusteringConfig& config) {
  if (config.regions == 0) {
    throw std::invalid_argument("cluster_servers_sampled: need >= 1 region");
  }
  const std::size_t n = graph.node_count();
  const std::uint32_t k =
      std::min<std::uint32_t>(config.regions, static_cast<std::uint32_t>(n));
  const std::size_t balanced = (n + k - 1) / k;
  const std::size_t cap =
      config.max_members == 0
          ? n
          : std::max<std::size_t>(config.max_members, balanced);

  common::Rng rng(config.seed);
  std::unordered_set<NodeId> chosen;
  while (chosen.size() < k) {
    chosen.insert(static_cast<NodeId>(rng.below(n)));
  }
  Clustering result;
  result.medoids.assign(chosen.begin(), chosen.end());
  std::sort(result.medoids.begin(), result.medoids.end());
  result.assignment.resize(n);

  // One Dijkstra strip per medoid instead of the M x M closure; a sweep
  // recomputes only the strips of the regions whose medoid moved.
  std::vector<std::vector<Cost>> strips(k);
  const auto compute_strips = [&](const std::vector<std::uint32_t>& regions) {
    common::ThreadPool::shared().parallel_for(
        0, regions.size(),
        [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) {
            strips[regions[i]] = dijkstra(graph, result.medoids[regions[i]]);
          }
        },
        1);
  };

  // Capacitated greedy assignment in ascending node order: medoids are
  // pinned to their own region, every other node takes the nearest centre
  // that still has room (ties to the lowest region id).
  const auto assign = [&]() -> double {
    std::vector<std::size_t> count(k, 0);
    std::vector<char> pinned(n, 0);
    for (std::uint32_t r = 0; r < k; ++r) {
      result.assignment[result.medoids[r]] = r;
      count[r] += 1;
      pinned[result.medoids[r]] = 1;
    }
    double total = 0.0;
    for (NodeId node = 0; node < n; ++node) {
      if (pinned[node]) continue;
      std::uint32_t best_region = k;
      Cost best = kUnreachable;
      for (std::uint32_t r = 0; r < k; ++r) {
        if (count[r] >= cap) continue;
        const Cost dist = strips[r][node];
        if (dist < best) {
          best = dist;
          best_region = r;
        }
      }
      if (best_region == k) {
        // Unreachable from every open centre (disconnected graph): park the
        // node in the first region with room.  cap >= ceil(n/k) guarantees
        // one exists.
        for (std::uint32_t r = 0; r < k; ++r) {
          if (count[r] < cap) {
            best_region = r;
            break;
          }
        }
        best = 0;
      }
      result.assignment[node] = best_region;
      count[best_region] += 1;
      total += static_cast<double>(best);
    }
    return total;
  };

  // One refinement sweep: per region, score the incumbent medoid plus a
  // sampled candidate set on the region subgraph and keep the argmin.
  // Returns the regions whose medoid moved, ascending.
  constexpr std::uint32_t kNoLocal = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> local(n, kNoLocal);
  const auto refine = [&]() -> std::vector<std::uint32_t> {
    std::vector<std::uint32_t> moved;
    std::vector<std::vector<NodeId>> members(k);
    for (NodeId node = 0; node < n; ++node) {
      members[result.assignment[node]].push_back(node);
    }
    for (std::uint32_t r = 0; r < k; ++r) {
      const std::vector<NodeId>& mem = members[r];
      if (mem.size() <= 1) continue;
      for (std::uint32_t i = 0; i < mem.size(); ++i) local[mem[i]] = i;
      Graph sub(mem.size());
      for (const NodeId node : mem) {
        for (const Edge& edge : graph.neighbors(node)) {
          if (edge.to > node && result.assignment[edge.to] == r) {
            sub.add_edge(local[node], local[edge.to], edge.cost);
          }
        }
      }
      // Incumbent first, then up to kMedoidCandidates distinct samples.
      std::vector<NodeId> candidates{result.medoids[r]};
      const std::uint32_t tries = kMedoidCandidates * 3;
      for (std::uint32_t t = 0;
           t < tries && candidates.size() < kMedoidCandidates + 1u; ++t) {
        const NodeId pick = mem[rng.below(mem.size())];
        if (std::find(candidates.begin(), candidates.end(), pick) ==
            candidates.end()) {
          candidates.push_back(pick);
        }
      }
      std::sort(candidates.begin(), candidates.end());
      NodeId best_node = result.medoids[r];
      std::uint64_t best_score = std::numeric_limits<std::uint64_t>::max();
      for (const NodeId candidate : candidates) {
        const std::vector<Cost> subd = dijkstra(sub, local[candidate]);
        std::uint64_t score = 0;
        for (const NodeId node : mem) {
          score += candidate_distance(subd[local[node]], strips[r][candidate],
                                      strips[r][node]);
        }
        if (score < best_score) {
          best_score = score;
          best_node = candidate;
        }
      }
      if (best_node != result.medoids[r]) {
        result.medoids[r] = best_node;
        moved.push_back(r);
      }
    }
    return moved;
  };

  std::vector<std::uint32_t> moved(k);
  std::iota(moved.begin(), moved.end(), 0u);
  compute_strips(moved);
  result.total_within_distance = assign();
  for (std::uint32_t iter = 0; iter < config.refine_iterations; ++iter) {
    moved = refine();
    if (moved.empty()) break;
    compute_strips(moved);
    result.total_within_distance = assign();
  }
  result.centre_strips =
      std::make_shared<const std::vector<std::vector<Cost>>>(std::move(strips));
  return result;
}

}  // namespace agtram::net
