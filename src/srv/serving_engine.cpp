#include "srv/serving_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "common/thread_pool.hpp"
#include "obs/obs.hpp"

namespace agtram::srv {

namespace {

/// Why `req` cannot be served, or nullptr.  O(1): `reader_cell` marks, per
/// cell, whether its server is in the structural readers(object) list.
const char* refusal(const drp::AccessMatrix& access,
                    const std::vector<std::uint8_t>& reader_cell,
                    const Request& req) {
  if (req.count == 0) return "empty request group";
  if (req.object >= access.object_count()) return "object out of range";
  const std::size_t base = access.accessor_base(req.object);
  if (req.slot >= access.accessor_base(req.object + 1) - base) {
    return "slot out of range";
  }
  if (!req.write && reader_cell[base + req.slot] == 0) {
    return "read on a non-reader cell";
  }
  return nullptr;
}

}  // namespace

ServingEngine::ServingEngine(drp::Problem problem, ServingConfig config)
    : config_(std::move(config)) {
  problem.validate();
  const net::Cost diameter = problem.distances->diameter();
  if (diameter > kMaxReadDistance) {
    throw std::invalid_argument(
        "ServingEngine: network diameter " + std::to_string(diameter) +
        " exceeds the read-cost histogram's cap of " +
        std::to_string(kMaxReadDistance));
  }
  shard_count_ = config_.shards != 0
                     ? config_.shards
                     : std::max<std::size_t>(
                           1, common::ThreadPool::shared().thread_count());

  if (config_.policy == ReconvergePolicy::OnDrift) {
    core::OnlineConfig online;
    online.mechanism = config_.mechanism;
    online.eviction_limit = config_.eviction_limit;
    online.differential_oracle = config_.differential_oracle;
    online_ = std::make_unique<core::OnlineMechanism>(std::move(problem),
                                                      online);
  } else {
    problem_ = std::make_unique<drp::Problem>(std::move(problem));
    core::MechanismResult initial =
        core::run_agt_ram(*problem_, config_.mechanism);
    if (!initial.drained) {
      throw std::invalid_argument(
          "ServingEngine: initial solve hit max_rounds — serving needs a "
          "quiescent placement");
    }
    placement_.emplace(std::move(initial.placement));
  }

  const drp::Problem& inst = this->problem();
  const drp::AccessMatrix& access = inst.access;
  const std::size_t nnz = access.nonzeros();
  window_pos_.assign(nnz, kUntouched);
  // Both rows are sorted by server id, so one merge marks the reader cells.
  reader_cell_.assign(nnz, 0);
  const std::size_t n = inst.object_count();
  for (drp::ObjectIndex k = 0; k < n; ++k) {
    const std::size_t base = access.accessor_base(k);
    const auto servers = access.accessor_servers(k);
    const auto readers = access.readers(k);
    std::size_t r = 0;
    for (std::size_t slot = 0; slot < servers.size() && r < readers.size();
         ++slot) {
      if (servers[slot] == readers[r]) {
        reader_cell_[base + slot] = 1;
        ++r;
      }
    }
  }

  const std::size_t hist_size = static_cast<std::size_t>(diameter) + 1;
  stats_.read_cost_histogram.assign(hist_size, 0);
  shards_.resize(shard_count_);
  for (Shard& shard : shards_) shard.hist.assign(hist_size, 0);

  table_.install(
      std::make_shared<const RoutingSnapshot>(placement(), epoch_));
  install_mean_read_cost_ = expected_mean_read_cost();
}

void ServingEngine::Shard::reset() {
  std::fill(hist.begin(), hist.end(), 0);
  writes = 0;
  read_units = write_units = 0.0;
  refused_at = 0;
  refusal = nullptr;
}

const drp::Problem& ServingEngine::problem() const {
  return online_ ? online_->problem() : *problem_;
}

const drp::ReplicaPlacement& ServingEngine::placement() const {
  return online_ ? online_->placement() : *placement_;
}

void ServingEngine::route_shard(const RoutingSnapshot& snap,
                                std::span<const Request> part,
                                Shard& shard) const {
  const drp::AccessMatrix& access = snap.problem().access;
  for (std::size_t e = 0; e < part.size(); ++e) {
    const Request& req = part[e];
    if (const char* why = refusal(access, reader_cell_, req)) {
      shard.refused_at = e;
      shard.refusal = why;
      return;
    }
    const double count = static_cast<double>(req.count);
    if (req.write) {
      shard.writes += req.count;
      shard.write_units += snap.write_units(req.object, req.slot) * count;
      continue;
    }
    const RouteDecision route = snap.route_read(req.object, req.slot);
    shard.hist[route.distance] += req.count;
    shard.read_units += snap.read_units(req.object, req.slot) * count;
  }
}

void ServingEngine::merge_shard(Shard& shard) {
  // Distances and counts are integers, so the read cost is exact.
  std::uint64_t reads = 0;
  std::uint64_t read_cost = 0;
  for (std::size_t d = 0; d < shard.hist.size(); ++d) {
    const std::uint64_t count = shard.hist[d];
    stats_.read_cost_histogram[d] += count;
    reads += count;
    read_cost += d * count;
  }
  stats_.reads += reads;
  stats_.writes += shard.writes;
  stats_.local_reads += shard.hist[0];
  stats_.read_units += shard.read_units;
  stats_.write_units += shard.write_units;
  window_requests_ += reads + shard.writes;
  window_read_cost_ += read_cost;
  window_read_count_ += reads;
  shard.reset();
}

void ServingEngine::observe(std::span<const Request> batch) {
  // Batch order is the shards' slices in shard order, so first touches land
  // in the order a shard-by-shard merge would give them.
  const drp::AccessMatrix& access = problem().access;
  for (const Request& req : batch) {
    const std::size_t idx = access.accessor_base(req.object) + req.slot;
    std::uint32_t pos = window_pos_[idx];
    if (pos == kUntouched) {
      pos = static_cast<std::uint32_t>(window_.size());
      window_pos_[idx] = pos;
      const drp::Access& cell = access.accessors(req.object)[req.slot];
      window_.push_back(WindowCell{static_cast<std::uint32_t>(idx),
                                   cell.reads + cell.writes, 0, 0});
    }
    WindowCell& seen = window_[pos];
    (req.write ? seen.writes : seen.reads) += req.count;
  }
  window_groups_ += batch.size();
}

void ServingEngine::run_batch(std::span<const Request> batch) {
  AGTRAM_OBS_SPAN("srv.batch");
  route_batch(batch);
  if (config_.policy == ReconvergePolicy::EveryBatch) {
    reconverge_now();
  } else if (config_.policy == ReconvergePolicy::OnDrift && drift_crossed()) {
    ++stats_.drift_triggers;
    AGTRAM_OBS_COUNT("srv.drift_triggers", 1);
    reconverge_now();
  }
}

void ServingEngine::route_batch(std::span<const Request> batch) {
  AGTRAM_OBS_SPAN("srv.route", stats_.serve_seconds);
  // One snapshot for the whole batch, shared by the shards: a batch is one
  // coherent epoch.  Installs run on this thread after the shards join, so
  // the acquired pointer needs no pin.
  const RoutingSnapshot* snap = table_.acquire();

  const std::size_t parts = batch.empty()
                                ? 0
                                : std::min(shard_count_, batch.size());
  const auto slice_begin = [&](std::size_t s) {
    return batch.size() * s / parts;
  };
  if (parts != 0) {
    common::ThreadPool::shared().parallel_for(
        0, parts,
        [&](std::size_t first, std::size_t last) {
          for (std::size_t s = first; s < last; ++s) {
            const std::size_t lo = slice_begin(s);
            const std::size_t hi = slice_begin(s + 1);
            route_shard(*snap, batch.subspan(lo, hi - lo), shards_[s]);
          }
        },
        1);
    // Slices are in batch order, so the first refusing shard holds the
    // batch's first refused request.
    for (std::size_t s = 0; s < parts; ++s) {
      if (shards_[s].refusal == nullptr) continue;
      const std::size_t at = slice_begin(s) + shards_[s].refused_at;
      const std::string why = shards_[s].refusal;
      for (Shard& shard : shards_) shard.reset();
      AGTRAM_OBS_COUNT("srv.batches_refused", 1);
      throw std::invalid_argument(
          "ServingEngine::run_batch: batch refused: request " +
          std::to_string(at) + " (object " +
          std::to_string(batch[at].object) + ", slot " +
          std::to_string(batch[at].slot) + "): " + why);
    }
    const std::uint64_t reads_before = stats_.reads;
    const std::uint64_t writes_before = stats_.writes;
    for (std::size_t s = 0; s < parts; ++s) merge_shard(shards_[s]);
    observe(batch);
    const std::uint64_t batch_reads = stats_.reads - reads_before;
    const std::uint64_t batch_writes = stats_.writes - writes_before;
    const std::uint64_t routed = batch_reads + batch_writes;
    stats_.requests += routed;
    AGTRAM_OBS_COUNT("srv.requests", routed);
    AGTRAM_OBS_COUNT("srv.reads_routed", batch_reads);
    AGTRAM_OBS_COUNT("srv.writes_routed", batch_writes);
    if (config_.bus) config_.bus->account_routes(routed);
  }
  ++stats_.batches;
  AGTRAM_OBS_COUNT("srv.batches", 1);
}

bool ServingEngine::drift_crossed() {
  DriftRecord& rec = last_drift_;
  rec = DriftRecord{};
  rec.batch = stats_.batches;
  rec.window_requests = window_requests_;
  rec.window_groups = window_groups_;
  rec.touched_cells = window_.size();
  rec.expected_read_cost = install_mean_read_cost_;
  rec.min_window_requests = config_.min_window_requests;
  rec.cost_regression_threshold = config_.cost_regression_threshold;
  rec.volume_drift_threshold = config_.volume_drift_threshold;

  // Routing-cost regression: observed mean read distance vs the expectation
  // computed when the current snapshot was installed.
  if (window_read_count_ > 0) {
    rec.observed_read_cost = static_cast<double>(window_read_cost_) /
                             static_cast<double>(window_read_count_);
  }

  // L1 volume drift over the window's touched cells: how far the observed
  // traffic shares moved from the registered demand shares.  Untouched
  // cells are skipped — their |0 - share| mass is implicit in the touched
  // cells' excess, and the threshold is calibrated for this one-sided sum.
  const drp::AccessMatrix& access = problem().access;
  const double grand = static_cast<double>(access.grand_total_reads() +
                                           access.grand_total_writes());
  const double window = static_cast<double>(window_requests_);
  const bool has_mix = grand > 0.0 && window_groups_ != 0;
  if (has_mix) {
    double drift = 0.0;
    for (const WindowCell& seen : window_) {
      const double observed_share =
          static_cast<double>(seen.reads + seen.writes) / window;
      const double registered_share =
          static_cast<double>(seen.registered) / grand;
      drift += std::abs(observed_share - registered_share);
    }
    rec.l1_drift = drift;
    // Multinomial sampling-noise floor: a stationary replay of n uniform
    // draws over K cells shows E[L1] <= sqrt(2K/(pi*n)) even with zero real
    // drift (Cauchy-Schwarz bound; tight in the uniform case, which is the
    // worst).  With cells ~ draws per batch that floor is O(1), so the raw
    // L1 would fire on noise; subtracting it makes the trigger consistent —
    // a stationary window grows n, the floor decays, the signal stays
    // near 0.
    rec.noise_floor = std::sqrt(
        2.0 * static_cast<double>(window_.size()) /
        (3.14159265358979323846 * static_cast<double>(window_groups_)));
  }

  if (window_requests_ < config_.min_window_requests) return false;
  if (install_mean_read_cost_ > 0.0 && window_read_count_ > 0 &&
      rec.observed_read_cost >=
          install_mean_read_cost_ * config_.cost_regression_threshold) {
    rec.fired = DriftSignal::CostRegression;
    return true;
  }
  if (has_mix &&
      rec.l1_drift - rec.noise_floor >= config_.volume_drift_threshold) {
    rec.fired = DriftSignal::VolumeDrift;
    return true;
  }
  return false;
}

void ServingEngine::reconverge_now() {
  AGTRAM_OBS_SPAN("srv.reconverge", stats_.reconverge_seconds);
  fold_window();
  if (online_) {
    const core::BatchOutcome outcome = online_->apply_events(fold_events_);
    stats_.fold_seconds += outcome.events_seconds;
    stats_.repair_seconds += outcome.repair_seconds;
    stats_.eviction_seconds += outcome.eviction_seconds;
    stats_.repair_rounds += outcome.repair_rounds;
    stats_.replicas_evicted += outcome.replicas_evicted;
    ++stats_.reconverges;
    AGTRAM_OBS_COUNT("srv.reconverges", 1);
    // Incremental install: only the added/evicted entries ship, and only
    // the objects whose replicators changed are re-filled.
    install_snapshot(outcome.repair_rounds + outcome.replicas_evicted +
                         outcome.replicas_lost,
                     &outcome.changed_objects);
  } else {
    {
      AGTRAM_OBS_SPAN("srv.resolve", stats_.repair_seconds);
      core::MechanismResult result =
          core::run_agt_ram(*problem_, config_.mechanism);
      stats_.repair_rounds += result.rounds.size();
      placement_.emplace(std::move(result.placement));
    }
    ++stats_.reconverges;
    AGTRAM_OBS_COUNT("srv.reconverges", 1);
    // Cold re-solve: the whole routing table ships and is rebuilt.
    install_snapshot(placement_->replica_count(), nullptr);
  }
  reset_window();
}

void ServingEngine::fold_window() {
  AGTRAM_OBS_SPAN("srv.fold", stats_.fold_seconds);
  const drp::AccessMatrix& access = problem().access;

  // Fold the observed window into the registered demand as an
  // evidence-weighted blend.  The observation is first scaled onto the
  // matrix's registered volume (the demand *mix* follows the traffic, the
  // total stays comparable, so OTC trajectories across policies measure
  // placement quality, not volume), then blended with weight
  // window/(window + grand): a window as large as the registered volume
  // moves cells halfway to the observation, while a single sparse batch —
  // whose per-cell counts are mostly 0 or 1 and would be amplified by the
  // grand/window rescale into solver-visible noise — only nudges them.  The
  // product alpha * scale = grand/(window + grand) < 1, so a cell's update
  // never exceeds its raw observed count.
  const std::uint64_t window_reads = window_read_count_;
  const std::uint64_t window_writes = window_requests_ - window_read_count_;
  const auto grand_reads = static_cast<double>(access.grand_total_reads());
  const auto grand_writes = static_cast<double>(access.grand_total_writes());
  const double read_scale =
      window_reads == 0 ? 0.0
                        : grand_reads / static_cast<double>(window_reads);
  const double write_scale =
      window_writes == 0 ? 0.0
                         : grand_writes / static_cast<double>(window_writes);
  const double read_alpha =
      window_reads == 0 ? 0.0
                        : static_cast<double>(window_reads) /
                              (static_cast<double>(window_reads) + grand_reads);
  const double write_alpha =
      window_writes == 0
          ? 0.0
          : static_cast<double>(window_writes) /
                (static_cast<double>(window_writes) + grand_writes);

  // Deltas in ascending cell order, whatever order the cells were touched
  // in: walk every object's row through the position map.
  fold_events_.clear();
  const std::size_t n = problem().object_count();
  for (drp::ObjectIndex k = 0; k < n; ++k) {
    const std::size_t base = access.accessor_base(k);
    const auto row = access.accessors(k);
    for (std::size_t slot = 0; slot < row.size(); ++slot) {
      const std::uint32_t pos = window_pos_[base + slot];
      if (pos == kUntouched) continue;
      const WindowCell& seen = window_[pos];
      const drp::Access& cell = row[slot];
      // Only re-target the kinds the window actually observed on this cell;
      // a write-only window on a read/write cell says nothing about its
      // reads.
      std::int64_t delta_reads = 0;
      if (seen.reads != 0) {
        const double observed = static_cast<double>(seen.reads) * read_scale;
        const double old = static_cast<double>(cell.reads);
        const std::int64_t target = static_cast<std::int64_t>(
            std::llround(old + read_alpha * (observed - old)));
        delta_reads = target - static_cast<std::int64_t>(cell.reads);
      }
      std::int64_t delta_writes = 0;
      if (seen.writes != 0) {
        const double observed =
            static_cast<double>(seen.writes) * write_scale;
        const double old = static_cast<double>(cell.writes);
        const std::int64_t target = static_cast<std::int64_t>(
            std::llround(old + write_alpha * (observed - old)));
        delta_writes = target - static_cast<std::int64_t>(cell.writes);
      }
      if (delta_reads == 0 && delta_writes == 0) continue;
      fold_events_.push_back(
          core::DemandDelta{cell.server, k, delta_reads, delta_writes});
    }
  }

  stats_.demand_delta_cells += fold_events_.size();
  AGTRAM_OBS_COUNT("srv.demand_delta_cells", fold_events_.size());
  if (config_.bus) config_.bus->account_demand_batch(fold_events_.size());

  // The online engine applies the deltas as its events stage; a cold
  // re-solve reads them from the matrix this engine owns.
  if (!online_) {
    for (const core::OnlineEvent& event : fold_events_) {
      const auto& d = std::get<core::DemandDelta>(event);
      problem_->access.apply_demand_delta(d.server, d.object, d.delta_reads,
                                          d.delta_writes);
    }
  }
}

void ServingEngine::install_snapshot(
    std::uint64_t changed_entries,
    const std::vector<drp::ObjectIndex>* changed) {
  std::shared_ptr<const RoutingSnapshot> snap;
  {
    AGTRAM_OBS_SPAN("srv.snapshot", stats_.snapshot_seconds);
    ++epoch_;
    snap = changed != nullptr
               ? std::make_shared<const RoutingSnapshot>(
                     *table_.acquire(), placement(), *changed, epoch_)
               : std::make_shared<const RoutingSnapshot>(placement(), epoch_);
  }
  AGTRAM_OBS_SPAN("srv.install", stats_.install_seconds);
  table_.install(std::move(snap));
  ++stats_.installs;
  if (config_.bus) {
    config_.bus->account_install(changed_entries == 0 ? 1 : changed_entries);
  }
  install_mean_read_cost_ = expected_mean_read_cost();
}

void ServingEngine::reset_window() {
  for (const WindowCell& seen : window_) window_pos_[seen.cell] = kUntouched;
  window_.clear();
  window_requests_ = 0;
  window_groups_ = 0;
  window_read_cost_ = 0;
  window_read_count_ = 0;
}

double ServingEngine::expected_mean_read_cost() const {
  const drp::Problem& inst = problem();
  const drp::AccessMatrix& access = inst.access;
  const drp::ReplicaPlacement& place = placement();
  const std::size_t n = inst.object_count();
  double weighted = 0.0;
  double total = 0.0;
  for (drp::ObjectIndex k = 0; k < n; ++k) {
    const auto reads = access.accessor_reads_d(k);
    const auto dist = place.nn_row(k);
    for (std::size_t slot = 0; slot < reads.size(); ++slot) {
      weighted += reads[slot] * static_cast<double>(dist[slot]);
      total += reads[slot];
    }
  }
  return total == 0.0 ? 0.0 : weighted / total;
}

}  // namespace agtram::srv
