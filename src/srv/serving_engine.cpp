#include "srv/serving_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/timer.hpp"
#include "obs/obs.hpp"

namespace agtram::srv {

double ServingStats::mean_read_cost() const noexcept {
  std::uint64_t total = 0;
  double weighted = 0.0;
  for (std::size_t d = 0; d < read_cost_histogram.size(); ++d) {
    total += read_cost_histogram[d];
    weighted += static_cast<double>(read_cost_histogram[d]) *
                static_cast<double>(d);
  }
  return total == 0 ? 0.0 : weighted / static_cast<double>(total);
}

ServingEngine::ServingEngine(drp::Problem problem, ServingConfig config)
    : config_(std::move(config)) {
  pool_ = config_.pool ? config_.pool : &common::ThreadPool::shared();
  shard_count_ = config_.shards != 0
                     ? config_.shards
                     : std::max<std::size_t>(1, pool_->thread_count());

  if (config_.policy == ReconvergePolicy::OnDrift) {
    core::OnlineConfig online;
    online.mechanism = config_.mechanism;
    online.max_repair_rounds = config_.max_repair_rounds;
    online.eviction_limit = config_.eviction_limit;
    online.differential_oracle = config_.differential_oracle;
    online_ = std::make_unique<core::OnlineMechanism>(std::move(problem),
                                                      online);
  } else {
    problem_ = std::make_unique<drp::Problem>(std::move(problem));
    problem_->validate();
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
  window_reads_.assign(nnz, 0);
  window_writes_.assign(nnz, 0);
  window_touched_flag_.assign(nnz, 0);
  cell_object_.resize(nnz);
  const std::size_t n = inst.object_count();
  for (drp::ObjectIndex k = 0; k < n; ++k) {
    const std::size_t base = access.accessor_base(k);
    const std::size_t width = access.accessors(k).size();
    for (std::size_t slot = 0; slot < width; ++slot) {
      cell_object_[base + slot] = k;
    }
  }

  const std::size_t hist_size =
      static_cast<std::size_t>(inst.distances->diameter()) + 1;
  stats_.read_cost_histogram.assign(hist_size, 0);
  shards_.resize(shard_count_);
  for (Shard& shard : shards_) shard.hist.assign(hist_size, 0);

  table_.install(
      std::make_shared<const RoutingSnapshot>(placement(), epoch_));
  install_mean_read_cost_ = expected_mean_read_cost();
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
  const std::size_t stride = config_.latency_sample_every;
  std::size_t until_sample = stride;
  for (const Request& req : part) {
    const std::size_t idx =
        snap.problem().access.accessor_base(req.object) + req.slot;
    const double count = static_cast<double>(req.count);
    shard.cell.push_back(idx);
    if (req.write) {
      shard.dr.push_back(0);
      shard.dw.push_back(req.count);
      shard.writes += req.count;
      shard.write_units += snap.write_units(req.object, req.slot) * count;
      continue;
    }
    RouteDecision route;
    if (stride != 0 && --until_sample == 0) {
      until_sample = stride;
      const auto t0 = std::chrono::steady_clock::now();
      route = snap.route_read(req.object, req.slot);
      const auto t1 = std::chrono::steady_clock::now();
      shard.query_ns.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    } else {
      route = snap.route_read(req.object, req.slot);
    }
    shard.dr.push_back(req.count);
    shard.dw.push_back(0);
    shard.reads += req.count;
    if (route.distance == 0) shard.local_reads += req.count;
    shard.hist[route.distance] += req.count;
    shard.read_cost += static_cast<double>(route.distance) * count;
    shard.read_units += snap.read_units(req.object, req.slot) * count;
  }
}

void ServingEngine::merge_shard(Shard& shard) {
  for (std::size_t e = 0; e < shard.cell.size(); ++e) {
    const std::uint64_t idx = shard.cell[e];
    window_reads_[idx] += shard.dr[e];
    window_writes_[idx] += shard.dw[e];
    if (window_touched_flag_[idx] == 0) {
      window_touched_flag_[idx] = 1;
      window_touched_.push_back(idx);
    }
  }
  for (std::size_t d = 0; d < shard.hist.size(); ++d) {
    stats_.read_cost_histogram[d] += shard.hist[d];
    shard.hist[d] = 0;
  }
  stats_.query_ns.insert(stats_.query_ns.end(), shard.query_ns.begin(),
                         shard.query_ns.end());
  stats_.reads += shard.reads;
  stats_.writes += shard.writes;
  stats_.local_reads += shard.local_reads;
  stats_.read_units += shard.read_units;
  stats_.write_units += shard.write_units;
  window_requests_ += shard.reads + shard.writes;
  window_groups_ += shard.cell.size();
  window_read_cost_ += shard.read_cost;
  window_read_count_ += shard.reads;

  shard.cell.clear();
  shard.dr.clear();
  shard.dw.clear();
  shard.query_ns.clear();
  shard.reads = shard.writes = shard.local_reads = 0;
  shard.read_units = shard.write_units = shard.read_cost = 0.0;
}

void ServingEngine::run_batch(std::span<const Request> batch) {
  AGTRAM_OBS_SPAN("srv.batch");
  common::Timer timer;
  // Pin one snapshot for the whole batch; shards share it (installs landing
  // mid-batch take effect next batch — a batch is one coherent epoch).
  const RoutingSnapshot* snap = table_.acquire();

  const std::size_t parts = batch.empty()
                                ? 0
                                : std::min(shard_count_, batch.size());
  if (parts != 0) {
    pool_->parallel_for(
        0, parts,
        [&](std::size_t first, std::size_t last) {
          for (std::size_t s = first; s < last; ++s) {
            const std::size_t lo = batch.size() * s / parts;
            const std::size_t hi = batch.size() * (s + 1) / parts;
            route_shard(*snap, batch.subspan(lo, hi - lo), shards_[s]);
          }
        },
        1);
    std::uint64_t batch_reads = 0;
    std::uint64_t batch_writes = 0;
    for (std::size_t s = 0; s < parts; ++s) {
      batch_reads += shards_[s].reads;
      batch_writes += shards_[s].writes;
      merge_shard(shards_[s]);
    }
    const std::uint64_t routed = batch_reads + batch_writes;
    stats_.requests += routed;
    AGTRAM_OBS_COUNT("srv.requests", routed);
    AGTRAM_OBS_COUNT("srv.reads_routed", batch_reads);
    AGTRAM_OBS_COUNT("srv.writes_routed", batch_writes);
    if (config_.bus) config_.bus->account_routes(routed);
  }
  ++stats_.batches;
  AGTRAM_OBS_COUNT("srv.batches", 1);
  stats_.serve_seconds += timer.seconds();

  if (config_.policy == ReconvergePolicy::EveryBatch) {
    reconverge_now();
  } else if (config_.policy == ReconvergePolicy::OnDrift && drift_crossed()) {
    ++stats_.drift_triggers;
    AGTRAM_OBS_COUNT("srv.drift_triggers", 1);
    reconverge_now();
  }
}

bool ServingEngine::drift_crossed() const {
  if (window_requests_ < config_.min_window_requests) return false;

  // Routing-cost regression: observed mean read distance vs the expectation
  // computed when the current snapshot was installed.
  if (install_mean_read_cost_ > 0.0 && window_read_count_ > 0) {
    const double observed =
        window_read_cost_ / static_cast<double>(window_read_count_);
    if (observed >=
        install_mean_read_cost_ * config_.cost_regression_threshold) {
      return true;
    }
  }

  // L1 volume drift over the window's touched cells: how far the observed
  // traffic shares moved from the registered demand shares.  Untouched
  // cells are skipped — their |0 - share| mass is implicit in the touched
  // cells' excess, and the threshold is calibrated for this one-sided sum.
  const drp::AccessMatrix& access = problem().access;
  const double grand = static_cast<double>(access.grand_total_reads() +
                                           access.grand_total_writes());
  const double window = static_cast<double>(window_requests_);
  if (grand <= 0.0 || window_groups_ == 0) return false;
  double drift = 0.0;
  for (const std::uint64_t idx : window_touched_) {
    const drp::ObjectIndex k = cell_object_[idx];
    const std::size_t slot = idx - access.accessor_base(k);
    const drp::Access& cell = access.accessors(k)[slot];
    const double observed_share =
        static_cast<double>(window_reads_[idx] + window_writes_[idx]) / window;
    const double registered_share =
        static_cast<double>(cell.reads + cell.writes) / grand;
    drift += std::abs(observed_share - registered_share);
  }
  // Multinomial sampling-noise floor: a stationary replay of n uniform
  // draws over K cells shows E[L1] <= sqrt(2K/(pi*n)) even with zero real
  // drift (Cauchy-Schwarz bound; tight in the uniform case, which is the
  // worst).  With cells ~ draws per batch that floor is O(1), so the raw L1
  // would fire on noise; subtracting it makes the trigger consistent — a
  // stationary window grows n, the floor decays, the signal stays near 0.
  const double noise_floor =
      std::sqrt(2.0 * static_cast<double>(window_touched_.size()) /
                (3.14159265358979323846 * static_cast<double>(window_groups_)));
  return drift - noise_floor >= config_.volume_drift_threshold;
}

void ServingEngine::reconverge_now() {
  AGTRAM_OBS_SPAN("srv.reconverge");
  common::Timer timer;
  common::Timer stage;
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
  std::uint64_t window_reads = 0;
  std::uint64_t window_writes = 0;
  for (const std::uint64_t idx : window_touched_) {
    window_reads += window_reads_[idx];
    window_writes += window_writes_[idx];
  }
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

  // Deterministic delta order regardless of shard merge interleaving.
  std::sort(window_touched_.begin(), window_touched_.end());

  std::vector<core::DemandDelta> deltas;
  deltas.reserve(window_touched_.size());
  for (const std::uint64_t idx : window_touched_) {
    const drp::ObjectIndex k = cell_object_[idx];
    const std::size_t slot = idx - access.accessor_base(k);
    const drp::Access& cell = access.accessors(k)[slot];
    // Only re-target the kinds the window actually observed on this cell; a
    // write-only window on a read/write cell says nothing about its reads.
    std::int64_t delta_reads = 0;
    if (window_reads_[idx] != 0) {
      const double observed =
          static_cast<double>(window_reads_[idx]) * read_scale;
      const double old = static_cast<double>(cell.reads);
      const std::int64_t target = static_cast<std::int64_t>(
          std::llround(old + read_alpha * (observed - old)));
      delta_reads = target - static_cast<std::int64_t>(cell.reads);
    }
    std::int64_t delta_writes = 0;
    if (window_writes_[idx] != 0) {
      const double observed =
          static_cast<double>(window_writes_[idx]) * write_scale;
      const double old = static_cast<double>(cell.writes);
      const std::int64_t target = static_cast<std::int64_t>(
          std::llround(old + write_alpha * (observed - old)));
      delta_writes = target - static_cast<std::int64_t>(cell.writes);
    }
    if (delta_reads == 0 && delta_writes == 0) continue;
    deltas.push_back(core::DemandDelta{
        static_cast<drp::ServerId>(access.accessor_servers(k)[slot]), k,
        delta_reads, delta_writes});
  }

  stats_.demand_delta_cells += deltas.size();
  AGTRAM_OBS_COUNT("srv.demand_delta_cells", deltas.size());
  if (config_.bus) config_.bus->account_demand_batch(deltas.size());

  std::uint64_t changed_entries = 0;
  if (online_) {
    std::vector<core::OnlineEvent> events(deltas.begin(), deltas.end());
    stats_.fold_seconds += stage.seconds();
    const core::BatchOutcome outcome = online_->apply_events(events);
    stats_.fold_seconds += outcome.events_seconds;
    stats_.repair_seconds += outcome.repair_seconds;
    stats_.eviction_seconds += outcome.eviction_seconds;
    stats_.repair_rounds += outcome.repair_rounds;
    stats_.replicas_evicted += outcome.replicas_evicted;
    // Incremental install: only the added/evicted entries ship.
    changed_entries = outcome.replicas_added + outcome.replicas_evicted +
                      outcome.replicas_lost;
  } else {
    for (const core::DemandDelta& d : deltas) {
      problem_->access.apply_demand_delta(d.server, d.object, d.delta_reads,
                                          d.delta_writes);
    }
    stats_.fold_seconds += stage.seconds();
    stage.reset();
    core::MechanismResult result =
        core::run_agt_ram(*problem_, config_.mechanism);
    stats_.repair_rounds += result.rounds.size();
    placement_.emplace(std::move(result.placement));
    stats_.repair_seconds += stage.seconds();
    // Cold re-solve: the whole routing table ships.
    changed_entries = placement_->replica_count();
  }

  ++stats_.reconverges;
  AGTRAM_OBS_COUNT("srv.reconverges", 1);
  install_snapshot(changed_entries);
  reset_window();
  stats_.reconverge_seconds += timer.seconds();
}

void ServingEngine::install_snapshot(std::uint64_t changed_entries) {
  common::Timer stage;
  ++epoch_;
  auto snap = std::make_shared<const RoutingSnapshot>(placement(), epoch_);
  stats_.snapshot_seconds += stage.seconds();
  stage.reset();
  table_.install(std::move(snap));
  ++stats_.installs;
  if (config_.bus) {
    config_.bus->account_install(changed_entries == 0 ? 1 : changed_entries);
  }
  install_mean_read_cost_ = expected_mean_read_cost();
  stats_.install_seconds += stage.seconds();
}

void ServingEngine::reset_window() {
  for (const std::uint64_t idx : window_touched_) {
    window_reads_[idx] = 0;
    window_writes_[idx] = 0;
    window_touched_flag_[idx] = 0;
  }
  window_touched_.clear();
  window_requests_ = 0;
  window_groups_ = 0;
  window_read_cost_ = 0.0;
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
