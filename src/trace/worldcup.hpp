// Synthetic World Cup 1998 trace generator.
//
// Substitution note (see DESIGN.md): the original HP Labs trace is
// proprietary; we synthesise logs matching its published characterisation
// (Arlitt & Jin, "Workload Characterization of the 1998 World Cup Web
// Site", HPL-1999-35R1):
//
//   * object popularity follows a Zipf-like law (exponent ~0.8-1.0);
//   * object sizes are lognormal with a small per-delivery variance;
//   * per-client request counts are heavily skewed (bounded Pareto);
//   * a stable "core" of objects appears in every day sample (the paper
//     keeps the 25,000 objects present in all 13 Friday logs);
//   * traffic volume differs per day (Fridays carry the weekly peak; later
//     tournament days are busier).
//
// The generator is fully deterministic in its config (seed included).
#pragma once

#include <cstdint>
#include <vector>

#include "trace/access_log.hpp"

namespace agtram::trace {

struct WorldCupConfig {
  std::uint32_t days = 13;            ///< paper: 13 Friday logs
  std::uint32_t object_universe = 4000;  ///< distinct URLs across the site
  std::uint32_t core_objects = 2500;  ///< objects hot enough to appear daily
  std::uint32_t clients = 800;        ///< distinct client IPs
  std::uint64_t requests_per_day = 100000;
  double popularity_exponent = 1.1;   ///< Zipf exponent for object choice
  double day_ramp = 0.35;             ///< late-tournament traffic growth
  /// Day-to-day popularity flux: each day, this fraction of the object
  /// universe has its popularity rank swapped with a random peer (match
  /// schedules made different pages hot on different days).  0 = the same
  /// static law every day.
  double daily_flux = 0.0;
  std::uint64_t seed = 42;
};

/// Clamp on an object's size draw, in data units (for pathological draws).
inline constexpr std::uint32_t kMaxObjectUnits = 500;

/// Base (true) size of each object in the universe, in data units; the
/// placement instance uses these via the pipeline's per-object size stats.
std::vector<std::uint32_t> worldcup_object_sizes(const WorldCupConfig& cfg);

/// Generates `cfg.days` day logs.  The first `core_objects` ranks form the
/// persistent core: each day's log is guaranteed to contain every core
/// object at least once (mirroring the paper's present-in-all-logs filter
/// yielding a stable object set), while tail objects come and go.
std::vector<DayLog> generate_worldcup_trace(const WorldCupConfig& cfg);

}  // namespace agtram::trace
