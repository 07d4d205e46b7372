// Request streams for the serving engine (DESIGN.md §13).
//
// A Request addresses a structural demand cell — (object, accessor slot) in
// the AccessMatrix slot scheme — because the serving engine folds observed
// traffic back into the demand matrix through the checked
// AccessMatrix::apply_demand_delta, whose fixed-universe contract admits
// demand movement only on existing cells (and reads only on structural
// reader cells).  `count` carries multiplicity so a million-request window
// replays in tens of thousands of routed entries without losing the
// request-weighted latency distribution.
//
// SyntheticWorkload samples cells proportionally to a drifting copy of the
// instance's own read/write rates: stationary with drift_interval = 0 (the
// matrix mix — i.e. a replay of the aggregated trace the instance was built
// from), or with periodic concentration drift that moves a fraction of each
// chosen object's read mass onto one hot reader (mean-field drift in the
// manner of runtime::OnlineEventModel) — the regime the drift trigger and
// the eviction pass exist for.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "drp/problem.hpp"

namespace agtram::srv {

/// One routed request group: `count` reads (or writes) issued from the
/// server at accessor slot `slot` of object `object`.
struct Request {
  drp::ObjectIndex object;
  std::uint32_t slot;
  std::uint32_t count;
  bool write;
};

struct WorkloadConfig {
  /// Request groups per batch (each carries a sampled multiplicity).
  std::size_t requests_per_batch = 4096;
  /// Mean multiplicity per group; actual counts are uniform in
  /// [1, 2*mean_count - 1] so batch volume is stable but not constant.
  std::uint32_t mean_count = 8;
  /// Batches between drift steps; 0 disables drift (stationary replay).
  std::size_t drift_interval = 8;
  /// Fraction of a drifted object's read (and write) mass moved onto the
  /// chosen hot cell per step.
  double drift_fraction = 0.35;
  /// Objects redirected per drift step.
  std::size_t drift_objects = 16;
  std::uint64_t seed = 1;
};

class SyntheticWorkload {
 public:
  SyntheticWorkload(const drp::Problem& problem, WorkloadConfig config);
  /// The workload keeps a pointer to the Problem: a temporary one is refused.
  SyntheticWorkload(drp::Problem&&, WorkloadConfig) = delete;

  /// Fills `out` (cleared first) with config.requests_per_batch groups drawn
  /// from the current rates, then advances the drift clock.  Deterministic
  /// per seed.
  void next_batch(std::vector<Request>& out);

  std::size_t batches_emitted() const noexcept { return batches_; }
  std::size_t drift_steps() const noexcept { return drift_steps_; }

 private:
  void drift_step();
  void rebuild_cumulative();

  const drp::Problem* problem_;
  WorkloadConfig config_;
  std::mt19937_64 rng_;
  /// Current per-cell sampling rates, slot scheme; reads then writes in one
  /// cumulative array so a single uniform draw picks cell *and* kind.
  std::vector<double> read_rate_;
  std::vector<double> write_rate_;
  std::vector<double> cum_;  ///< size 2*nnz; cum_[i] = prefix sum
  double total_rate_ = 0.0;
  std::vector<drp::ObjectIndex> cell_object_;  ///< slot scheme -> object
  std::vector<drp::ObjectIndex> readable_;     ///< objects with >= 2 readers
  std::size_t batches_ = 0;
  std::size_t drift_steps_ = 0;
};

}  // namespace agtram::srv
