#include "core/regional.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "drp/lazy_greedy.hpp"
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

namespace {

/// Flags the regions `config` declares failed, refusing an id the
/// clustering does not have.
std::vector<bool> failed_region_flags(const RegionalConfig& config,
                                      std::size_t region_count) {
  std::vector<bool> failed(region_count, false);
  for (const std::uint32_t r : config.failed_regions) {
    if (r >= region_count) {
      throw std::invalid_argument(
          "failed region " + std::to_string(r) + " does not exist: the run "
          "has " + std::to_string(region_count) + " regions");
    }
    failed[r] = true;
  }
  return failed;
}

/// Refuses an observer on an engine that would never call it.
void refuse_observer(const RegionalConfig& config, const char* engine) {
  if (config.observer != nullptr) {
    throw std::invalid_argument(std::string(engine) +
                                " takes no observer: only run_regional "
                                "reports its rounds");
  }
}

/// What one region's centre decides in an epoch: replicate `object` at
/// `server`, charging `payment`.
struct RegionPick {
  bool has = false;
  drp::ServerId server = 0;
  drp::ObjectIndex object = 0;
  double payment = 0.0;
};

/// The clustering, the region outcomes and the failed regions both dense
/// engines start from, on the primaries-only scheme.
RegionalResult start_regions(const drp::Problem& problem,
                             const RegionalConfig& config) {
  RegionalResult result{drp::ReplicaPlacement(problem),
                        cluster_regions(problem, config), {}, 0};
  const std::size_t region_count = result.clustering.region_count();
  const std::vector<bool> failed = failed_region_flags(config, region_count);
  result.regions.resize(region_count);
  for (std::uint32_t r = 0; r < region_count; ++r) {
    result.regions[r].centre = result.clustering.medoids[r];
    result.regions[r].member_count =
        static_cast<std::uint32_t>(result.clustering.members(r).size());
    result.regions[r].failed = failed[r];  // a dead body allocates nothing
  }
  return result;
}

/// The epoch loop both dense engines run.  One epoch is a poll phase in
/// which every live region's centre picks at most one move against the
/// epoch-start placement, then a commit phase applying the picks in
/// ascending region id.  Regions occupy disjoint servers, so a deferred
/// commit never invalidates another region's pick — values are cleared as
/// reported, which is the honest concurrent-regions semantics.  The run
/// ends after an epoch without a pick, or after `max_epochs`.  The engine
/// supplies begin_epoch(epoch), pick(region, placement), and
/// committed(region, pick, placement) after the pick's replica lands.
template <typename BeginEpoch, typename Pick, typename Committed>
void run_epochs(const RegionalConfig& config, RegionalResult& result,
                BeginEpoch&& begin_epoch, Pick&& pick, Committed&& committed) {
  std::vector<RegionPick> picks(result.regions.size());
  bool any_progress = true;
  while (any_progress) {
    if (config.max_epochs != 0 && result.epochs >= config.max_epochs) break;
    any_progress = false;
    begin_epoch(result.epochs);
    for (std::uint32_t r = 0; r < picks.size(); ++r) {
      picks[r] =
          result.regions[r].failed ? RegionPick{} : pick(r, result.placement);
    }
    for (std::uint32_t r = 0; r < picks.size(); ++r) {
      if (!picks[r].has) continue;
      const RegionPick& move = picks[r];
      assert(result.placement.can_replicate(move.server, move.object));
      result.placement.add_replica(move.server, move.object);
      result.regions[r].replicas_placed += 1;
      result.regions[r].charges += move.payment;
      AGTRAM_OBS_COUNT("regional.replicas_placed", 1);
      committed(r, move, result.placement);
      any_progress = true;
    }
    ++result.epochs;
    AGTRAM_OBS_COUNT("regional.epochs", 1);
  }
}

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

/// Best member site for object k from the region's cooperative viewpoint.
drp::GreedyMove best_coalition_move(const drp::ReplicaPlacement& placement,
                                    const net::Clustering& clustering,
                                    std::uint32_t region,
                                    const std::vector<net::NodeId>& members,
                                    drp::ObjectIndex k) {
  drp::GreedyMove best{0.0, 0, k};
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

RegionalResult run_regional(const drp::Problem& problem,
                            const RegionalConfig& config) {
  AGTRAM_OBS_SPAN("regional.run");
  RegionalResult result = start_regions(problem, config);
  // Each region's centre holds a sealed-bid round over its live members.
  // agents[i] is server i, so the live sets hold server ids, ascending.
  std::vector<Agent> agents = build_agents(problem);
  std::vector<std::vector<std::uint32_t>> live(result.regions.size());
  for (const std::uint32_t i : live_agents(agents)) {
    live[result.clustering.assignment[i]].push_back(i);
  }
  MechanismObserver* const observer = config.observer;
  SealedBids bids;
  run_epochs(
      config, result,
      [&](std::size_t epoch) {
        if (observer) observer->on_round_begin(epoch);
      },
      [&](std::uint32_t r, const drp::ReplicaPlacement& placement) {
        if (live[r].empty()) return RegionPick{};
        AGTRAM_OBS_COUNT("regional.reports_polled", live[r].size());
        poll_round(agents, live[r], placement, {}, observer, bids);
        if (bids.empty()) return RegionPick{};
        const std::size_t slot = bids.best();
        return RegionPick{true, bids.bidders[slot],
                          bids.reports[slot].object,
                          compute_payment(config.payment_rule, bids.claims,
                                          slot)};
      },
      [&](std::uint32_t r, const RegionPick& pick,
          const drp::ReplicaPlacement& /*placement*/) {
        if (!observer) return;
        observer->on_allocation(pick.server, pick.object, pick.payment);
        observer->on_broadcast(pick.server, pick.object, live[r]);
      });
  return result;
}

RegionalResult run_regional_cooperative(const drp::Problem& problem,
                                        const RegionalConfig& config) {
  refuse_observer(config, "run_regional_cooperative");
  AGTRAM_OBS_SPAN("regional.cooperative_run");
  RegionalResult result = start_regions(problem, config);
  // Each coalition keeps a lazy greedy over objects, keyed by the best
  // member site for the region's welfare.
  const std::size_t region_count = result.regions.size();
  std::vector<std::vector<net::NodeId>> members(region_count);
  std::vector<drp::LazyGreedyHeap> heaps(region_count);
  const auto best_move = [&](const drp::ReplicaPlacement& placement,
                             std::uint32_t r, drp::ObjectIndex k) {
    return best_coalition_move(placement, result.clustering, r, members[r],
                               k);
  };
  for (std::uint32_t r = 0; r < region_count; ++r) {
    members[r] = result.clustering.members(r);
    if (result.regions[r].failed) continue;
    for (drp::ObjectIndex k = 0; k < problem.object_count(); ++k) {
      heaps[r].push(best_move(result.placement, r, k));
    }
    AGTRAM_OBS_COUNT("regional.coalition_scans", problem.object_count());
  }
  run_epochs(
      config, result, [](std::size_t /*epoch*/) {},
      [&](std::uint32_t r, const drp::ReplicaPlacement& placement) {
        drp::GreedyCounts counts;
        const std::optional<drp::GreedyMove> move = heaps[r].pop_best(
            [&](drp::ObjectIndex k) { return best_move(placement, r, k); },
            counts);
        AGTRAM_OBS_COUNT("regional.coalition_scans", counts.pops);
        if (!move) return RegionPick{};
        return RegionPick{true, move->server, move->object, 0.0};
      },
      [&](std::uint32_t r, const RegionPick& pick,
          const drp::ReplicaPlacement& placement) {
        heaps[r].push(best_move(placement, r, pick.object));
      });
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
  refuse_observer(config, "run_hierarchical");
  AGTRAM_OBS_SPAN("regional.hierarchical_run");
  HierarchicalResult result{drp::ReplicaPlacement(problem),
                            cluster_regions(problem, config),
                            {},
                            0.0,
                            0};

  // A failed region's decision body is down: its members never report.
  const std::vector<bool> region_failed =
      failed_region_flags(config, result.clustering.region_count());
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
  return result;
}

}  // namespace agtram::core
