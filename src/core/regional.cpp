#include "core/regional.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

#include "drp/cost_model.hpp"
#include "obs/obs.hpp"

namespace agtram::core {

std::size_t RegionalResult::replicas_placed() const {
  std::size_t total = 0;
  for (const RegionOutcome& region : regions) total += region.replicas_placed;
  return total;
}

namespace {

common::ThreadPool& resolve_pool(const RegionalConfig& config) {
  return config.pool != nullptr ? *config.pool : common::ThreadPool::shared();
}

/// Runs `body(r)` once per region: concurrently (one job per region) under
/// Sharded, in ascending region order under Serial.  Bodies may only write
/// region-owned state (their agents, heaps, and result slots) and read the
/// shared placement, so the two orders are byte-identical.
template <typename Body>
void for_each_region(const RegionalConfig& config, std::size_t region_count,
                     const Body& body) {
  if (config.execution == RegionalExecution::Sharded) {
    resolve_pool(config).parallel_for(
        0, region_count,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t r = begin; r < end; ++r) {
            body(static_cast<std::uint32_t>(r));
          }
        },
        /*min_grain=*/1);
  } else {
    for (std::size_t r = 0; r < region_count; ++r) {
      body(static_cast<std::uint32_t>(r));
    }
  }
}

/// Fresh reports for a region's live agents against the placement snapshot.
/// Under Sharded the pool is already busy with the region jobs, so the
/// inner parallel_for degrades to the inline fallback.
void poll_reports(const RegionalConfig& config, std::vector<Agent>& agents,
                  const std::vector<std::uint32_t>& live,
                  const drp::ReplicaPlacement& placement,
                  std::vector<Report>& reports) {
  const auto eval = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t a = live[i];
      reports[a] = agents[a].make_report(placement, nullptr);
    }
  };
  if (config.parallel_agents && live.size() >= config.parallel_min_agents) {
    resolve_pool(config).parallel_for(0, live.size(), eval);
  } else {
    eval(0, live.size());
  }
}

net::Clustering cluster_for(const drp::Problem& problem,
                            const RegionalConfig& config) {
  net::ClusteringConfig clustering_cfg;
  clustering_cfg.regions = config.regions;
  clustering_cfg.seed = config.seed;
  return net::cluster_servers(*problem.distances, clustering_cfg);
}

}  // namespace

RegionalResult run_regional(const drp::Problem& problem,
                            const RegionalConfig& config) {
  AGTRAM_OBS_SPAN("regional.run");
  net::Clustering clustering = cluster_for(problem, config);

  const std::size_t region_count = clustering.region_count();
  RegionalResult result{drp::ReplicaPlacement(problem), std::move(clustering),
                        {}, 0};
  result.regions.resize(region_count);

  // Per-region agent pools (indices into `agents` per region).
  std::vector<Agent> agents;
  agents.reserve(problem.server_count());
  std::vector<std::vector<std::uint32_t>> region_live(region_count);
  for (drp::ServerId i = 0; i < problem.server_count(); ++i) {
    agents.emplace_back(problem, i);
    if (!agents.back().retired()) {
      region_live[result.clustering.assignment[i]].push_back(
          static_cast<std::uint32_t>(agents.size() - 1));
    }
  }
  for (std::uint32_t r = 0; r < region_count; ++r) {
    result.regions[r].centre = result.clustering.medoids[r];
    result.regions[r].member_count =
        static_cast<std::uint32_t>(result.clustering.members(r).size());
  }
  for (const std::uint32_t r : config.failed_regions) {
    if (r < region_count) {
      result.regions[r].failed = true;
      region_live[r].clear();  // a dead decision body allocates nothing
    }
  }

  // One epoch = a poll phase in which every live region runs its round
  // against the epoch-start placement snapshot (region jobs own their
  // agents and pick slots; the placement is read-only), then a commit phase
  // applying the <=R winners in ascending region id.  Regions occupy
  // disjoint servers, so deferred commits can never invalidate another
  // region's winner — values are simply cleared as reported, which is the
  // honest concurrent-regions semantics.
  struct EpochPick {
    bool has = false;
    std::uint32_t winner_agent = 0;
    drp::ObjectIndex object = 0;
    double payment = 0.0;
  };
  std::vector<EpochPick> picks(region_count);
  std::vector<Report> reports(agents.size());

  bool any_progress = true;
  while (any_progress) {
    if (config.max_epochs != 0 && result.epochs >= config.max_epochs) break;
    any_progress = false;

    for_each_region(config, region_count, [&](std::uint32_t r) {
      picks[r] = EpochPick{};
      auto& live = region_live[r];
      if (live.empty()) return;

      const std::uint64_t polled = live.size();
      poll_reports(config, agents, live, result.placement, reports);

      std::vector<double> values;
      std::vector<std::uint32_t> bidders;  // agent indices
      std::vector<std::uint32_t> next_live;
      values.reserve(live.size());
      next_live.reserve(live.size());
      for (const std::uint32_t a : live) {
        if (reports[a].has_candidate) {
          values.push_back(reports[a].claimed_value);
          bidders.push_back(a);
          next_live.push_back(a);
        }
      }
      live = std::move(next_live);
      result.regions[r].reports_polled += polled;
      result.regions[r].wire_bytes += polled * kReportWireBytes;
      AGTRAM_OBS_COUNT("regional.reports_polled", polled);
      AGTRAM_OBS_COUNT("regional.report_bytes", polled * kReportWireBytes);
      if (values.empty()) return;

      std::size_t winner_slot = 0;
      for (std::size_t s = 1; s < values.size(); ++s) {
        if (values[s] > values[winner_slot]) winner_slot = s;
      }
      picks[r].has = true;
      picks[r].winner_agent = bidders[winner_slot];
      picks[r].object = reports[bidders[winner_slot]].object;
      picks[r].payment =
          compute_payment(config.payment_rule, values, winner_slot);
    });

    for (std::uint32_t r = 0; r < region_count; ++r) {
      if (!picks[r].has) continue;
      const drp::ServerId winner = agents[picks[r].winner_agent].id();
      assert(result.placement.can_replicate(winner, picks[r].object));
      result.placement.add_replica(winner, picks[r].object);
      const std::uint64_t broadcast =
          kBroadcastWireBytes * region_live[r].size();
      result.regions[r].replicas_placed += 1;
      result.regions[r].charges += picks[r].payment;
      result.regions[r].wire_bytes += kAllocationWireBytes + broadcast;
      AGTRAM_OBS_COUNT("regional.replicas_placed", 1);
      AGTRAM_OBS_COUNT("regional.alloc_bytes", kAllocationWireBytes);
      AGTRAM_OBS_COUNT("regional.broadcast_bytes", broadcast);
      any_progress = true;
    }
    ++result.epochs;
    AGTRAM_OBS_COUNT("regional.epochs", 1);
  }
  return result;
}

namespace {

/// Welfare gain for one region of placing a replica of k at member i:
/// read savings of the region's members minus i's broadcast subscription.
double regional_benefit(const drp::ReplicaPlacement& placement,
                        const net::Clustering& clustering,
                        std::uint32_t region, drp::ServerId i,
                        drp::ObjectIndex k) {
  const drp::Problem& p = placement.problem();
  const double o = static_cast<double>(p.object_units[k]);
  double benefit = 0.0;
  const auto accessors = p.access.accessors(k);
  for (std::size_t slot = 0; slot < accessors.size(); ++slot) {
    const auto& a = accessors[slot];
    if (a.reads == 0 || clustering.assignment[a.server] != region) continue;
    if (placement.is_replicator(a.server, k)) continue;
    const net::Cost current = placement.nn_distance_by_slot(k, slot);
    const net::Cost with_i = std::min(current, p.distance(a.server, i));
    benefit += static_cast<double>(a.reads) * o *
               (static_cast<double>(current) - static_cast<double>(with_i));
  }
  benefit -= (static_cast<double>(p.access.total_writes(k)) -
              static_cast<double>(p.access.writes(i, k))) *
             o * static_cast<double>(p.distance(p.primary[k], i));
  return benefit;
}

struct CoalitionMove {
  double benefit = 0.0;
  drp::ServerId server = 0;
  drp::ObjectIndex object = 0;
};

/// Best member site for object k from the region's cooperative viewpoint.
CoalitionMove best_coalition_move(const drp::ReplicaPlacement& placement,
                                  const net::Clustering& clustering,
                                  std::uint32_t region,
                                  const std::vector<net::NodeId>& members,
                                  drp::ObjectIndex k) {
  CoalitionMove best;
  best.object = k;
  for (const net::NodeId i : members) {
    if (!placement.can_replicate(i, k)) continue;
    const double benefit =
        regional_benefit(placement, clustering, region, i, k);
    if (benefit > best.benefit) {
      best.benefit = benefit;
      best.server = i;
    }
  }
  return best;
}

}  // namespace

RegionalResult run_regional_cooperative(const drp::Problem& problem,
                                        const RegionalConfig& config) {
  AGTRAM_OBS_SPAN("regional.cooperative_run");
  net::Clustering clustering = cluster_for(problem, config);
  const std::size_t region_count = clustering.region_count();

  RegionalResult result{drp::ReplicaPlacement(problem), std::move(clustering),
                        {}, 0};
  result.regions.resize(region_count);
  std::vector<std::vector<net::NodeId>> members(region_count);
  for (std::uint32_t r = 0; r < region_count; ++r) {
    members[r] = result.clustering.members(r);
    result.regions[r].centre = result.clustering.medoids[r];
    result.regions[r].member_count =
        static_cast<std::uint32_t>(members[r].size());
  }
  std::vector<bool> region_failed(region_count, false);
  for (const std::uint32_t r : config.failed_regions) {
    if (r < region_count) {
      region_failed[r] = true;
      result.regions[r].failed = true;
    }
  }

  // Per-region lazy max-heap over objects; coalition benefits only decay
  // (NN distances shrink, capacities shrink), so stale tops re-validate.
  struct HeapEntry {
    double benefit;
    drp::ObjectIndex object;
    bool operator<(const HeapEntry& other) const noexcept {
      if (benefit != other.benefit) return benefit < other.benefit;
      return object > other.object;
    }
  };
  std::vector<std::priority_queue<HeapEntry>> heaps(region_count);
  for_each_region(config, region_count, [&](std::uint32_t r) {
    if (region_failed[r]) return;
    std::uint64_t scans = 0;
    for (drp::ObjectIndex k = 0; k < problem.object_count(); ++k) {
      const CoalitionMove move = best_coalition_move(
          result.placement, result.clustering, r, members[r], k);
      ++scans;
      if (move.benefit > 0.0) heaps[r].push(HeapEntry{move.benefit, k});
    }
    result.regions[r].reports_polled += scans;
    result.regions[r].wire_bytes += scans * kReportWireBytes;
    AGTRAM_OBS_COUNT("regional.coalition_scans", scans);
  });

  // Epochs follow the same snapshot/commit split as run_regional: the poll
  // phase validates each region's heap top against the epoch-start
  // placement and records at most one move per region; commits then apply
  // in ascending region id and push the committed object's next move.
  struct CoopPick {
    bool has = false;
    drp::ServerId server = 0;
    drp::ObjectIndex object = 0;
  };
  std::vector<CoopPick> picks(region_count);

  bool any_progress = true;
  while (any_progress) {
    if (config.max_epochs != 0 && result.epochs >= config.max_epochs) break;
    any_progress = false;

    for_each_region(config, region_count, [&](std::uint32_t r) {
      picks[r] = CoopPick{};
      auto& heap = heaps[r];
      std::uint64_t scans = 0;
      while (!heap.empty()) {
        const HeapEntry top = heap.top();
        heap.pop();
        const CoalitionMove fresh = best_coalition_move(
            result.placement, result.clustering, r, members[r], top.object);
        ++scans;
        if (fresh.benefit <= 0.0) continue;
        if (!heap.empty() && fresh.benefit < heap.top().benefit) {
          heap.push(HeapEntry{fresh.benefit, top.object});
          continue;
        }
        picks[r] = CoopPick{true, fresh.server, fresh.object};
        break;  // one allocation per region per epoch
      }
      result.regions[r].reports_polled += scans;
      result.regions[r].wire_bytes += scans * kReportWireBytes;
      AGTRAM_OBS_COUNT("regional.coalition_scans", scans);
    });

    for (std::uint32_t r = 0; r < region_count; ++r) {
      if (!picks[r].has) continue;
      assert(result.placement.can_replicate(picks[r].server, picks[r].object));
      result.placement.add_replica(picks[r].server, picks[r].object);
      const std::uint64_t broadcast = kBroadcastWireBytes * members[r].size();
      result.regions[r].replicas_placed += 1;
      result.regions[r].wire_bytes += kAllocationWireBytes + broadcast;
      AGTRAM_OBS_COUNT("regional.replicas_placed", 1);
      AGTRAM_OBS_COUNT("regional.alloc_bytes", kAllocationWireBytes);
      AGTRAM_OBS_COUNT("regional.broadcast_bytes", broadcast);
      any_progress = true;
      const CoalitionMove next = best_coalition_move(
          result.placement, result.clustering, r, members[r],
          picks[r].object);
      result.regions[r].reports_polled += 1;
      result.regions[r].wire_bytes += kReportWireBytes;
      if (next.benefit > 0.0) {
        heaps[r].push(HeapEntry{next.benefit, picks[r].object});
      }
    }
    ++result.epochs;
    AGTRAM_OBS_COUNT("regional.epochs", 1);
  }
  return result;
}

HierarchicalResult run_hierarchical(const drp::Problem& problem,
                                    const RegionalConfig& config) {
  AGTRAM_OBS_SPAN("regional.hierarchical_run");
  net::Clustering clustering = cluster_for(problem, config);
  const std::size_t region_count = clustering.region_count();

  HierarchicalResult result{drp::ReplicaPlacement(problem),
                            std::move(clustering),
                            {},
                            0.0,
                            0};

  std::vector<Agent> agents;
  agents.reserve(problem.server_count());
  std::vector<std::vector<std::uint32_t>> region_live(region_count);
  for (drp::ServerId i = 0; i < problem.server_count(); ++i) {
    agents.emplace_back(problem, i);
    if (!agents.back().retired()) {
      region_live[result.clustering.assignment[i]].push_back(
          static_cast<std::uint32_t>(agents.size() - 1));
    }
  }
  std::vector<bool> region_failed(region_count, false);
  for (const std::uint32_t r : config.failed_regions) {
    if (r < region_count) region_failed[r] = true;
  }

  struct Champion {
    double value;
    drp::ServerId server;
    drp::ObjectIndex object;
    double true_value;
  };
  struct RegionNomination {
    bool has = false;
    Champion champion{0.0, 0, 0, 0.0};
  };
  std::vector<RegionNomination> nominations(region_count);
  std::vector<Report> reports(agents.size());

  std::size_t round = 0;
  for (;;) {
    if (config.max_epochs != 0 && round >= config.max_epochs) break;

    // Level 1: every live region nominates its champion (regional argmax,
    // ties towards the lowest server id — region members are in id order).
    // Region rounds poll against the round-start placement, one job per
    // region under Sharded, so the nominations match Serial exactly.
    for_each_region(config, region_count, [&](std::uint32_t r) {
      nominations[r] = RegionNomination{};
      if (region_failed[r]) return;
      auto& live = region_live[r];
      if (live.empty()) return;
      const std::uint64_t polled = live.size();
      poll_reports(config, agents, live, result.placement, reports);
      std::vector<std::uint32_t> next_live;
      next_live.reserve(live.size());
      for (const std::uint32_t a : live) {
        if (!reports[a].has_candidate) continue;
        next_live.push_back(a);
        if (!nominations[r].has ||
            reports[a].claimed_value > nominations[r].champion.value) {
          nominations[r].has = true;
          nominations[r].champion =
              Champion{reports[a].claimed_value, agents[a].id(),
                       reports[a].object, reports[a].true_value};
        }
      }
      live = std::move(next_live);
      AGTRAM_OBS_COUNT("regional.reports_polled", polled);
      AGTRAM_OBS_COUNT("regional.report_bytes", polled * kReportWireBytes);
    });

    std::vector<Champion> champions;
    champions.reserve(region_count);
    for (std::uint32_t r = 0; r < region_count; ++r) {
      if (nominations[r].has) champions.push_back(nominations[r].champion);
    }
    if (champions.empty()) break;
    result.top_level_reports += champions.size();

    // Level 2: the top centre compares R scalars.
    std::size_t winner_slot = 0;
    for (std::size_t c = 1; c < champions.size(); ++c) {
      if (champions[c].value > champions[winner_slot].value ||
          (champions[c].value == champions[winner_slot].value &&
           champions[c].server < champions[winner_slot].server)) {
        winner_slot = c;
      }
    }
    double second = 0.0;
    for (std::size_t c = 0; c < champions.size(); ++c) {
      if (c != winner_slot) second = std::max(second, champions[c].value);
    }
    const double payment =
        config.payment_rule == PaymentRule::SecondPrice ? second
        : config.payment_rule == PaymentRule::FirstPrice
            ? champions[winner_slot].value
            : 0.0;

    const Champion& winner = champions[winner_slot];
    assert(result.placement.can_replicate(winner.server, winner.object));
    result.placement.add_replica(winner.server, winner.object);
    result.rounds.push_back(RoundRecord{winner.server, winner.object,
                                        winner.value, winner.true_value,
                                        payment});
    result.total_charges += payment;
    AGTRAM_OBS_COUNT("regional.hier_rounds", 1);
    AGTRAM_OBS_COUNT("regional.replicas_placed", 1);
    ++round;
  }
  return result;
}

}  // namespace agtram::core
