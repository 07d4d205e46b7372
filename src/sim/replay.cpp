#include "sim/replay.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace agtram::sim {

ReplayStats replay(const drp::ReplicaPlacement& placement) {
  const drp::Problem& p = placement.problem();
  ReplayStats stats;

  // One (distance, reads) sample per reading cell: a graph read from disk
  // may carry costs up to 2^32 - 1, too many for a histogram by distance.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> latency_samples;
  std::vector<std::uint64_t> served(p.server_count(), 0);

  for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    const double o = static_cast<double>(p.object_units[k]);
    const drp::ServerId primary = p.primary[k];

    for (const auto& access : p.access.accessors(k)) {
      // --- Reads: each is served by the nearest replicator.  The routing
      // decision goes through nn_server (the protocol's NN table), and the
      // travelled distance is looked up independently in the metric.
      if (access.reads > 0) {
        const drp::ServerId serving = placement.nn_server(access.server, k);
        served[serving] += access.reads;
        const net::Cost hop = p.distance(access.server, serving);
        stats.read_units += static_cast<double>(access.reads) * o *
                            static_cast<double>(hop);
        stats.read_requests += access.reads;
        latency_samples.emplace_back(hop, access.reads);
      }
      // --- Writes: shipped to the primary...
      if (access.writes > 0) {
        stats.write_ship_units +=
            static_cast<double>(access.writes) * o *
            static_cast<double>(p.distance(access.server, primary));
        stats.write_requests += access.writes;
      }
    }

    // ... and broadcast from the primary to every *other* replicator; a
    // writer that is itself a replicator does not receive its own update
    // back (Equation 2's j != i term).
    for (const drp::ServerId replicator : placement.replicators(k)) {
      if (replicator == primary) continue;
      const std::uint64_t incoming =
          p.access.total_writes(k) - p.access.writes(replicator, k);
      stats.broadcast_units += static_cast<double>(incoming) * o *
                               static_cast<double>(p.distance(primary, replicator));
    }
  }

  stats.read_latency = common::summarize_read_costs(std::move(latency_samples));

  // Server service-load distribution.
  if (stats.read_requests > 0 && !served.empty()) {
    std::sort(served.rbegin(), served.rend());
    std::uint64_t total = 0;
    for (const std::uint64_t s : served) total += s;
    stats.server_load.mean_served =
        static_cast<double>(total) / static_cast<double>(served.size());
    stats.server_load.max_served = static_cast<double>(served.front());
    stats.server_load.imbalance =
        stats.server_load.mean_served > 0.0
            ? stats.server_load.max_served / stats.server_load.mean_served
            : 0.0;
    const std::size_t top5 = std::max<std::size_t>(1, served.size() / 20);
    std::uint64_t top5_total = 0;
    for (std::size_t s = 0; s < top5; ++s) top5_total += served[s];
    stats.server_load.top5_share =
        static_cast<double>(top5_total) / static_cast<double>(total);
  }
  return stats;
}

}  // namespace agtram::sim
