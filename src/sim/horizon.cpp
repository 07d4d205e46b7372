#include "sim/horizon.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>
#include <variant>
#include <vector>

#include "core/agt_ram.hpp"
#include "core/online.hpp"
#include "drp/cost_model.hpp"
#include "sim/replay.hpp"

namespace agtram::sim {

namespace {

/// Every replica whose drop lowers OTC goes, however many the day produces.
constexpr std::size_t kEvictionLimit = std::numeric_limits<std::size_t>::max();

/// Storage units that differ between two schemes (replicas present in one
/// but not the other) — the bytes a deployment must move.
std::uint64_t churn_between(const drp::ReplicaPlacement& a,
                            const drp::ReplicaPlacement& b) {
  const drp::Problem& p = a.problem();
  std::uint64_t churn = 0;
  for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    const auto ra = a.replicators(k);
    const auto rb = b.replicators(k);
    std::size_t ia = 0, ib = 0;
    while (ia < ra.size() || ib < rb.size()) {
      if (ib == rb.size() || (ia < ra.size() && ra[ia] < rb[ib])) {
        churn += p.object_units[k];
        ++ia;
      } else if (ia == ra.size() || rb[ib] < ra[ia]) {
        churn += p.object_units[k];
        ++ib;
      } else {
        ++ia;
        ++ib;
      }
    }
  }
  return churn;
}

/// L1 change the batch makes to the read matrix, over the total reads.
double read_shift(const std::vector<core::OnlineEvent>& batch,
                  std::uint64_t total_reads) {
  if (total_reads == 0) return 0.0;
  std::map<std::pair<drp::ServerId, drp::ObjectIndex>, std::int64_t> net;
  for (const core::OnlineEvent& event : batch) {
    if (const auto* d = std::get_if<core::DemandDelta>(&event)) {
      net[{d->server, d->object}] += d->delta_reads;
    }
  }
  double moved = 0.0;
  for (const auto& [cell, delta] : net) {
    moved += static_cast<double>(std::llabs(delta));
  }
  return moved / static_cast<double>(total_reads);
}

void record_day(HorizonSeries& series, std::uint32_t day, double moved,
                const drp::ReplicaPlacement& scheme, std::uint64_t churn) {
  DayRecord record;
  record.day = day;
  record.demand_moved = moved;
  record.churn_units = churn;
  const double initial_cost = drp::CostModel::initial_cost(scheme.problem());
  record.savings =
      (initial_cost - drp::CostModel::total_cost(scheme)) / initial_cost;
  const ReplayStats stats = replay(scheme);
  record.mean_read_latency = stats.read_latency.mean;
  record.local_read_fraction = stats.read_latency.local_fraction;
  record.replicas = scheme.extra_replica_count();
  series.days.push_back(record);
  series.total_churn_units += churn;
}

void finish(HorizonSeries& series) {
  for (const DayRecord& record : series.days) {
    series.mean_savings += record.savings;
  }
  series.mean_savings /= static_cast<double>(series.days.size());
}

}  // namespace

runtime::OnlineEventModel day_drift_model(const drp::Problem& problem,
                                          double drift, std::uint64_t seed) {
  runtime::OnlineEventModel model;
  model.replica_loss_rate = 0.0;
  model.server_fail_rate = 0.0;
  model.server_recover_rate = 0.0;
  model.flash_crowd_probability = 0.0;
  model.object_churn_probability = 0.0;
  model.demand_drift_moves = static_cast<std::size_t>(std::llround(
      drift * static_cast<double>(problem.access.total_reader_entries())));
  model.drift_fraction = 1.0;
  model.seed = seed * 1000003ULL;
  return model;
}

HorizonResult run_horizon(const drp::Problem& initial,
                          const HorizonConfig& config) {
  if (config.days == 0) throw std::invalid_argument("horizon needs >= 1 day");
  if (!std::isfinite(config.drift) || config.drift < 0.0) {
    throw std::invalid_argument("horizon drift must be finite and >= 0");
  }

  core::OnlineConfig online;
  online.eviction_limit = kEvictionLimit;
  core::OnlineMechanism engine(initial, online);
  // Every placement below points at the engine-owned Problem, whose demand
  // apply_events rewrites in place: costs and replays always read the
  // current day's demand.
  const drp::Problem& live = engine.problem();
  runtime::OnlineEventSource source(
      engine, day_drift_model(live, config.drift, config.seed));

  const drp::ReplicaPlacement stale = engine.placement();
  drp::ReplicaPlacement rebuilt = stale;
  drp::ReplicaPlacement adapted = stale;

  HorizonResult result;
  record_day(result.stale, 0, 0.0, stale, 0);
  record_day(result.rebuild, 0, 0.0, rebuilt, 0);
  record_day(result.adapt, 0, 0.0, adapted, 0);
  for (std::uint32_t day = 1; day < config.days; ++day) {
    const std::vector<core::OnlineEvent> batch = source.next_batch();
    const double moved = read_shift(batch, live.access.grand_total_reads());
    engine.apply_events(batch);
    // The eviction pass runs after the repair; one empty batch offers the
    // capacity it freed to the agents it re-queued before the day is scored.
    engine.apply_events({});

    record_day(result.stale, day, moved, stale, 0);

    drp::ReplicaPlacement next = core::run_agt_ram(live).placement;
    const std::uint64_t rebuild_churn = churn_between(rebuilt, next);
    rebuilt = std::move(next);
    record_day(result.rebuild, day, moved, rebuilt, rebuild_churn);

    const std::uint64_t adapt_churn =
        churn_between(adapted, engine.placement());
    adapted = engine.placement();
    record_day(result.adapt, day, moved, adapted, adapt_churn);
  }

  finish(result.stale);
  finish(result.rebuild);
  finish(result.adapt);
  return result;
}

}  // namespace agtram::sim
