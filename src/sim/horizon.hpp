// Multi-day horizon simulation: the operational life of a replication
// deployment under drifting demand.
//
// The paper positions AGT-RAM as "a protocol for automatic replication and
// migration of objects in response to demand changes".  This driver makes
// that operational claim testable end to end.  One drifting timeline is
// scored under three policies in a single pass:
//
//   * Stale   — the day-0 placement, never touched again, re-priced on each
//               day's demand;
//   * Rebuild — a cold AGT-RAM solve of each day's demand (the quality
//               ceiling, at maximal storage churn);
//   * Adapt   — core::OnlineMechanism, the repo's one demand-adaptation
//               engine: each day is one demand-only event batch, repaired
//               by the dirty-set mechanism run and trimmed by the
//               delta-OTC eviction pass.
//
// Day 0 is the engine's initial solve (identical to core::run_agt_ram), so
// the three series share it.  Demand drifts inside the fixed universe the
// engine lives in: read volume moves only among each object's build-time
// readers, so the drift can never add a reader.  The ablation bench and the
// cdn_week example are thin wrappers over run_horizon.
#pragma once

#include <cstdint>
#include <vector>

#include "drp/problem.hpp"
#include "runtime/event_sim.hpp"

namespace agtram::sim {

struct HorizonConfig {
  std::uint32_t days = 7;
  /// Read-drift moves per day, as a fraction of the instance's (object,
  /// reader) cells; each move hands one reader's whole read volume of an
  /// object to another of its readers.
  double drift = 0.25;
  std::uint64_t seed = 1;
};

struct DayRecord {
  std::uint32_t day = 0;
  double demand_moved = 0.0;     ///< L1 read shift vs. the previous day
  double savings = 0.0;          ///< vs. that day's primaries-only OTC
  double mean_read_latency = 0.0;
  double local_read_fraction = 0.0;
  std::uint64_t churn_units = 0; ///< storage moved since the previous day
  std::size_t replicas = 0;
};

/// One policy's days on the shared timeline.
struct HorizonSeries {
  std::vector<DayRecord> days;
  double mean_savings = 0.0;
  std::uint64_t total_churn_units = 0;
};

struct HorizonResult {
  HorizonSeries stale;
  HorizonSeries rebuild;
  HorizonSeries adapt;
};

/// The demand-only event model behind one horizon day on `problem`: read
/// drift (with the model's default write drift) and nothing else — no
/// replica loss, server failure, flash crowd or object churn.
runtime::OnlineEventModel day_drift_model(const drp::Problem& problem,
                                          double drift, std::uint64_t seed);

/// Runs the horizon; deterministic in (problem, config).  Throws
/// std::invalid_argument on zero days or a negative or non-finite drift.
HorizonResult run_horizon(const drp::Problem& initial,
                          const HorizonConfig& config);

}  // namespace agtram::sim
