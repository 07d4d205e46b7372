#include "runtime/event_sim.hpp"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

namespace agtram::runtime {

namespace {

/// A flash crowd multiplies each reader's reads of its object by this.
constexpr double kFlashCrowdMultiplier = 4.0;

}  // namespace

OnlineEventSource::OnlineEventSource(const core::OnlineMechanism& engine,
                                     OnlineEventModel model)
    : engine_(&engine), model_(model), rng_(model.seed) {}

std::vector<core::OnlineEvent> OnlineEventSource::next_batch() {
  const drp::Problem& p = engine_->problem();
  const drp::ReplicaPlacement& placement = engine_->placement();
  const std::size_t m = p.server_count();
  const std::size_t n = p.object_count();
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const auto pick = [&](std::size_t bound) {
    return std::uniform_int_distribution<std::size_t>(0, bound - 1)(rng_);
  };

  // Events are generated against the pre-batch state and ordered so the
  // engine's sequential application never sees an invalid one: demand
  // deltas touch objects that are active now, losses reference replicas
  // that exist now (and precede the fail/delete events that would drop
  // them), joins never reference a server failed in this same batch.
  std::vector<core::OnlineEvent> demand;
  std::vector<core::OnlineEvent> losses;
  std::vector<core::OnlineEvent> fails;
  std::vector<core::OnlineEvent> joins;
  std::vector<core::OnlineEvent> churn;

  // --- Read drift (and occasional write drift) between structural cells.
  // Deltas within one batch stack on the same cell, so negative moves are
  // validated against pre-batch demand *plus* the batch's pending deltas —
  // the value the engine will actually see when it applies the event.
  std::map<std::pair<drp::ServerId, drp::ObjectIndex>,
           std::pair<std::int64_t, std::int64_t>>
      pending;
  for (std::size_t move = 0; move < model_.demand_drift_moves; ++move) {
    const auto k = static_cast<drp::ObjectIndex>(pick(n));
    if (engine_->object_deleted(k)) continue;
    const auto readers = p.access.readers(k);
    if (readers.size() < 2) continue;
    const drp::ServerId src = readers[pick(readers.size())];
    const drp::ServerId dst = readers[pick(readers.size())];
    if (src == dst) continue;
    auto& src_pending = pending[{src, k}];
    const std::int64_t avail =
        static_cast<std::int64_t>(p.access.reads(src, k)) + src_pending.first;
    if (avail <= 0) continue;
    const auto moved = std::min<std::int64_t>(
        avail, std::max<std::int64_t>(
                   1, static_cast<std::int64_t>(static_cast<double>(avail) *
                                                model_.drift_fraction)));
    src_pending.first -= moved;
    pending[{dst, k}].first += moved;
    demand.push_back(core::DemandDelta{src, k, -moved, 0});
    demand.push_back(core::DemandDelta{dst, k, moved, 0});
    if (coin(rng_) < model_.write_drift_probability) {
      // Writes may move to any structural cell (no reader restriction).
      const auto cells = p.access.accessors(k);
      const drp::Access from = cells[pick(cells.size())];
      const drp::Access to = cells[pick(cells.size())];
      if (from.server != to.server) {
        auto& from_pending = pending[{from.server, k}];
        const std::int64_t avail_w =
            static_cast<std::int64_t>(from.writes) + from_pending.second;
        if (avail_w > 0) {
          const auto w = std::min<std::int64_t>(
              avail_w,
              std::max<std::int64_t>(
                  1, static_cast<std::int64_t>(static_cast<double>(avail_w) *
                                               model_.drift_fraction)));
          from_pending.second -= w;
          pending[{to.server, k}].second += w;
          demand.push_back(core::DemandDelta{from.server, k, 0, -w});
          demand.push_back(core::DemandDelta{to.server, k, 0, w});
        }
      }
    }
  }

  // --- Flash crowd: every reader of one object multiplies its reads.
  if (coin(rng_) < model_.flash_crowd_probability) {
    const auto k = static_cast<drp::ObjectIndex>(pick(n));
    if (!engine_->object_deleted(k)) {
      for (const drp::ServerId i : p.access.readers(k)) {
        const std::uint64_t r = p.access.reads(i, k);
        if (r == 0) continue;
        const auto extra = static_cast<std::int64_t>(
            static_cast<double>(r) * (kFlashCrowdMultiplier - 1.0));
        if (extra > 0) demand.push_back(core::DemandDelta{i, k, extra, 0});
      }
    }
  }

  // --- Mean-field replica loss: each surviving extra replica is an
  // independent Bernoulli trial.
  if (model_.replica_loss_rate > 0.0) {
    for (drp::ObjectIndex k = 0; k < n; ++k) {
      const drp::ServerId primary = p.primary[k];
      for (const drp::ServerId r : placement.replicators(k)) {
        if (r == primary) continue;
        if (coin(rng_) < model_.replica_loss_rate) {
          losses.push_back(core::ReplicaLoss{r, k});
        }
      }
    }
  }

  // --- Server fail/recover chain.  Servers failing this batch are tracked
  // so no join is emitted for them in the same batch.
  std::vector<char> failing(m, 0);
  if (model_.server_fail_rate > 0.0 || model_.server_recover_rate > 0.0) {
    for (drp::ServerId s = 0; s < m; ++s) {
      if (engine_->server_failed(s)) {
        if (coin(rng_) < model_.server_recover_rate) {
          joins.push_back(core::ServerJoin{s});
        }
      } else if (coin(rng_) < model_.server_fail_rate) {
        fails.push_back(core::ServerFail{s});
        failing[s] = 1;
      }
    }
  }

  // --- Object churn: at most one delete and one create per batch.
  if (coin(rng_) < model_.object_churn_probability) {
    const auto k = static_cast<drp::ObjectIndex>(pick(n));
    if (!engine_->object_deleted(k)) churn.push_back(core::ObjectDelete{k});
  }
  if (coin(rng_) < model_.object_churn_probability) {
    // Reservoir-pick a deleted object (there is no deleted-object index).
    std::size_t seen = 0;
    drp::ObjectIndex chosen = 0;
    for (drp::ObjectIndex k = 0; k < n; ++k) {
      if (!engine_->object_deleted(k)) continue;
      ++seen;
      if (pick(seen) == 0) chosen = k;
    }
    if (seen > 0) churn.push_back(core::ObjectCreate{chosen});
  }

  std::vector<core::OnlineEvent> batch;
  batch.reserve(demand.size() + losses.size() + fails.size() + joins.size() +
                churn.size());
  const auto append = [&](std::vector<core::OnlineEvent>& part) {
    for (core::OnlineEvent& e : part) batch.push_back(std::move(e));
  };
  append(demand);
  append(losses);
  append(fails);
  append(joins);
  append(churn);
  return batch;
}

}  // namespace agtram::runtime
