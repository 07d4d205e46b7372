#include "core/regional.hpp"

#include <algorithm>
#include <cassert>
#include <queue>
#include <utility>

#include "drp/cost_model.hpp"
#include "obs/obs.hpp"

namespace agtram::core {

std::size_t RegionalResult::replicas_placed() const {
  std::size_t total = 0;
  for (const RegionOutcome& region : regions) total += region.replicas_placed;
  return total;
}

net::Clustering cluster_regions(const drp::Problem& problem,
                                const RegionalConfig& config) {
  net::ClusteringConfig clustering_cfg;
  clustering_cfg.regions = config.regions;
  clustering_cfg.seed = config.seed;
  return net::cluster_servers(*problem.distances, clustering_cfg);
}

RegionalResult run_regional(const drp::Problem& problem,
                            const RegionalConfig& config) {
  AGTRAM_OBS_SPAN("regional.run");
  net::Clustering clustering = cluster_regions(problem, config);

  const std::size_t region_count = clustering.region_count();
  RegionalResult result{drp::ReplicaPlacement(problem), std::move(clustering),
                        {}, 0};
  result.regions.resize(region_count);

  // Per-region live sets.  agents[i] is server i, so the sets hold server
  // ids, in ascending order.
  std::vector<Agent> agents;
  agents.reserve(problem.server_count());
  std::vector<std::vector<drp::ServerId>> region_live(region_count);
  for (drp::ServerId i = 0; i < problem.server_count(); ++i) {
    agents.emplace_back(problem, i);
    if (!agents.back().retired()) {
      region_live[result.clustering.assignment[i]].push_back(i);
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
  // against the epoch-start placement snapshot, then a commit phase
  // applying the <=R winners in ascending region id.  Regions occupy
  // disjoint servers, so deferred commits can never invalidate another
  // region's winner — values are simply cleared as reported, which is the
  // honest concurrent-regions semantics.
  struct EpochPick {
    bool has = false;
    drp::ServerId winner = 0;
    drp::ObjectIndex object = 0;
    double payment = 0.0;
  };
  std::vector<EpochPick> picks(region_count);
  std::vector<Report> reports(agents.size());
  MechanismObserver* const observer = config.observer;

  bool any_progress = true;
  while (any_progress) {
    if (config.max_epochs != 0 && result.epochs >= config.max_epochs) break;
    any_progress = false;
    if (observer) observer->on_round_begin(result.epochs);

    for (std::uint32_t r = 0; r < region_count; ++r) {
      picks[r] = EpochPick{};
      auto& live = region_live[r];
      if (live.empty()) continue;

      const std::uint64_t polled = live.size();
      for (const drp::ServerId i : live) {
        reports[i] = agents[i].make_report(result.placement, nullptr);
      }

      std::vector<double> values;
      std::vector<drp::ServerId> bidders;
      values.reserve(live.size());
      bidders.reserve(live.size());
      for (const drp::ServerId i : live) {
        if (observer) observer->on_report(i, reports[i], /*fresh=*/true);
        if (reports[i].has_candidate) {
          values.push_back(reports[i].claimed_value);
          bidders.push_back(i);
        }
      }
      live = std::move(bidders);  // the bidders stay in LS
      AGTRAM_OBS_COUNT("regional.reports_polled", polled);
      AGTRAM_OBS_COUNT("regional.report_bytes", polled * kReportWireBytes);
      if (values.empty()) continue;

      std::size_t winner_slot = 0;
      for (std::size_t s = 1; s < values.size(); ++s) {
        if (values[s] > values[winner_slot]) winner_slot = s;
      }
      picks[r].has = true;
      picks[r].winner = live[winner_slot];
      picks[r].object = reports[live[winner_slot]].object;
      picks[r].payment =
          compute_payment(config.payment_rule, values, winner_slot);
    }

    for (std::uint32_t r = 0; r < region_count; ++r) {
      if (!picks[r].has) continue;
      const drp::ServerId winner = picks[r].winner;
      assert(result.placement.can_replicate(winner, picks[r].object));
      result.placement.add_replica(winner, picks[r].object);
      if (observer) {
        observer->on_allocation(winner, picks[r].object, picks[r].payment);
        observer->on_broadcast(winner, picks[r].object, region_live[r]);
      }
      const std::uint64_t broadcast =
          kBroadcastWireBytes * region_live[r].size();
      result.regions[r].replicas_placed += 1;
      result.regions[r].charges += picks[r].payment;
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
  net::Clustering clustering = cluster_regions(problem, config);
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
  for (std::uint32_t r = 0; r < region_count; ++r) {
    if (region_failed[r]) continue;
    std::uint64_t scans = 0;
    for (drp::ObjectIndex k = 0; k < problem.object_count(); ++k) {
      const CoalitionMove move = best_coalition_move(
          result.placement, result.clustering, r, members[r], k);
      ++scans;
      if (move.benefit > 0.0) heaps[r].push(HeapEntry{move.benefit, k});
    }
    AGTRAM_OBS_COUNT("regional.coalition_scans", scans);
  }

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

    for (std::uint32_t r = 0; r < region_count; ++r) {
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
      AGTRAM_OBS_COUNT("regional.coalition_scans", scans);
    }

    for (std::uint32_t r = 0; r < region_count; ++r) {
      if (!picks[r].has) continue;
      assert(result.placement.can_replicate(picks[r].server, picks[r].object));
      result.placement.add_replica(picks[r].server, picks[r].object);
      const std::uint64_t broadcast = kBroadcastWireBytes * members[r].size();
      result.regions[r].replicas_placed += 1;
      AGTRAM_OBS_COUNT("regional.replicas_placed", 1);
      AGTRAM_OBS_COUNT("regional.alloc_bytes", kAllocationWireBytes);
      AGTRAM_OBS_COUNT("regional.broadcast_bytes", broadcast);
      any_progress = true;
      const CoalitionMove next = best_coalition_move(
          result.placement, result.clustering, r, members[r],
          picks[r].object);
      if (next.benefit > 0.0) {
        heaps[r].push(HeapEntry{next.benefit, picks[r].object});
      }
    }
    ++result.epochs;
    AGTRAM_OBS_COUNT("regional.epochs", 1);
  }
  return result;
}

namespace {

/// The regional centres and the top centre of run_hierarchical, watching
/// the flat round loop.  Every live agent's standing report arrives each
/// round in ascending id order (fresh or cached, it is the report a re-poll
/// would produce), so a region's champion is its first best report, as its
/// own centre would pick it.  The flat winner is the lowest-id holder of
/// the best report, hence its region's champion; the top centre prices the
/// round against the champions and records it.
class TopCentre final : public MechanismObserver {
 public:
  TopCentre(const net::Clustering& clustering, PaymentRule payment_rule,
            HierarchicalResult& result)
      : clustering_(clustering),
        payment_rule_(payment_rule),
        result_(result),
        champions_(clustering.region_count()) {}

  void on_round_begin(std::size_t /*round*/) override {
    std::fill(champions_.begin(), champions_.end(), Report{});
  }

  void on_report(drp::ServerId agent, const Report& report,
                 bool /*fresh*/) override {
    ++reports_polled_;
    if (!report.has_candidate) return;
    Report& champion = champions_[clustering_.assignment[agent]];
    if (!champion.has_candidate ||
        report.claimed_value > champion.claimed_value) {
      champion = report;
    }
  }

  void on_allocation(drp::ServerId winner, drp::ObjectIndex object,
                     double /*flat_payment*/) override {
    const std::uint32_t home = clustering_.assignment[winner];
    values_.clear();
    std::size_t winner_slot = 0;
    for (std::uint32_t r = 0; r < champions_.size(); ++r) {
      if (!champions_[r].has_candidate) continue;
      if (r == home) winner_slot = values_.size();
      values_.push_back(champions_[r].claimed_value);
    }
    const double payment =
        compute_payment(payment_rule_, values_, winner_slot);
    result_.rounds.push_back(RoundRecord{winner, object,
                                         champions_[home].claimed_value,
                                         champions_[home].true_value,
                                         payment});
    result_.total_charges += payment;
    result_.top_level_reports += values_.size();
    AGTRAM_OBS_COUNT("regional.hier_rounds", 1);
    AGTRAM_OBS_COUNT("regional.replicas_placed", 1);
  }

  /// Reports the regional centres polled, the terminating round's included.
  std::uint64_t reports_polled() const { return reports_polled_; }

 private:
  const net::Clustering& clustering_;
  PaymentRule payment_rule_;
  HierarchicalResult& result_;
  std::vector<Report> champions_;  ///< by region; has_candidate = nominated
  std::vector<double> values_;
  std::uint64_t reports_polled_ = 0;
};

}  // namespace

HierarchicalResult run_hierarchical(const drp::Problem& problem,
                                    const RegionalConfig& config) {
  AGTRAM_OBS_SPAN("regional.hierarchical_run");
  HierarchicalResult result{drp::ReplicaPlacement(problem),
                            cluster_regions(problem, config),
                            {},
                            0.0,
                            0};

  // A failed region's decision body is down: its members never report.
  std::vector<bool> region_failed(result.clustering.region_count(), false);
  for (const std::uint32_t r : config.failed_regions) {
    if (r < region_failed.size()) region_failed[r] = true;
  }
  std::vector<drp::ServerId> participants;
  for (drp::ServerId i = 0; i < problem.server_count(); ++i) {
    if (!region_failed[result.clustering.assignment[i]]) {
      participants.push_back(i);
    }
  }

  TopCentre top(result.clustering, config.payment_rule, result);
  AgtRamConfig mech;
  mech.payment_rule = PaymentRule::None;  // the top centre prices each round
  mech.observer = &top;
  mech.max_rounds = config.max_epochs;
  MechanismResult flat = run_agt_ram_from(
      problem, mech, std::move(result.placement), &participants);
  result.placement = std::move(flat.placement);
  AGTRAM_OBS_COUNT("regional.reports_polled", top.reports_polled());
  AGTRAM_OBS_COUNT("regional.report_bytes",
                   top.reports_polled() * kReportWireBytes);
  return result;
}

}  // namespace agtram::core
