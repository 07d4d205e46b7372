#include "trace/worldcup.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/distributions.hpp"
#include "common/prng.hpp"

namespace agtram::trace {

using common::BoundedParetoSampler;
using common::LognormalSampler;
using common::Rng;
using common::ZipfSampler;

namespace {

/// Lognormal of object size, in data units.
constexpr double kSizeMu = 2.2;
constexpr double kSizeSigma = 1.0;
/// Bounded-Pareto client skew.
constexpr double kClientActivityAlpha = 1.2;
/// Late-tournament traffic growth: the last day carries this much more
/// volume than the first, ramped linearly.
constexpr double kDayRamp = 0.35;

void validate(const WorldCupConfig& cfg) {
  if (cfg.days == 0) throw std::invalid_argument("days must be >= 1");
  if (cfg.object_universe == 0 || cfg.clients == 0) {
    throw std::invalid_argument("need objects and clients");
  }
  if (cfg.core_objects > cfg.object_universe) {
    throw std::invalid_argument("core_objects exceeds universe");
  }
  if (cfg.requests_per_day < cfg.core_objects) {
    throw std::invalid_argument(
        "requests_per_day must cover at least one hit per core object");
  }
}

/// Client chooser: activity weights drawn from a bounded Pareto, sampled via
/// a cumulative table.  Heavier clients issue proportionally more requests.
class ClientSampler {
 public:
  ClientSampler(const WorldCupConfig& cfg, Rng& rng) : cdf_(cfg.clients) {
    BoundedParetoSampler activity(kClientActivityAlpha, 1.0, 1e4);
    double acc = 0.0;
    for (std::uint32_t c = 0; c < cfg.clients; ++c) {
      acc += activity(rng);
      cdf_[c] = acc;
    }
    for (double& v : cdf_) v /= acc;
    cdf_.back() = 1.0;
  }

  ClientId operator()(Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<ClientId>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

std::vector<std::uint32_t> worldcup_object_sizes(const WorldCupConfig& cfg) {
  validate(cfg);
  // Sizes come from an Rng stream independent of the request stream so the
  // same object universe backs every day sample.
  Rng rng(cfg.seed ^ 0x5151515151515151ULL);
  LognormalSampler size_dist(kSizeMu, kSizeSigma);
  std::vector<std::uint32_t> sizes(cfg.object_universe);
  for (auto& s : sizes) {
    const double raw = std::max(1.0, size_dist(rng));
    s = static_cast<std::uint32_t>(
        std::min<double>(raw, kMaxObjectUnits));
  }
  return sizes;
}

std::vector<DayLog> generate_worldcup_trace(const WorldCupConfig& cfg) {
  validate(cfg);
  const std::vector<std::uint32_t> sizes = worldcup_object_sizes(cfg);

  Rng master(cfg.seed);
  ZipfSampler popularity(cfg.object_universe, cfg.popularity_exponent);
  ClientSampler pick_client(cfg, master);

  std::vector<DayLog> days;
  days.reserve(cfg.days);
  for (std::uint32_t d = 0; d < cfg.days; ++d) {
    Rng rng = master.fork(d + 1);
    DayLog log;
    log.day_index = d;

    // Fridays later in the tournament are busier: linear ramp by kDayRamp.
    const double ramp =
        1.0 + kDayRamp * static_cast<double>(d) /
                  static_cast<double>(std::max(1u, cfg.days - 1));
    const auto volume =
        static_cast<std::uint64_t>(static_cast<double>(cfg.requests_per_day) * ramp);
    log.requests.reserve(volume + cfg.core_objects);

    const auto emit = [&](ObjectId object) {
      const ClientId client = pick_client(rng);
      // Per-delivery unit count jitters around the object's true size
      // (partial transfers, headers) — this produces the per-object size
      // variance the paper measures from the logs.
      const double jitter = 0.85 + 0.3 * rng.uniform();
      const auto units = static_cast<std::uint32_t>(std::max(
          1.0, std::round(static_cast<double>(sizes[object]) * jitter)));
      log.requests.push_back(Request{client, object, units});
    };

    // Guarantee the persistent core appears in every day sample.
    for (ObjectId k = 0; k < cfg.core_objects; ++k) emit(k);
    for (std::uint64_t i = cfg.core_objects; i < volume; ++i) {
      emit(static_cast<ObjectId>(popularity(rng)));
    }
    days.push_back(std::move(log));
  }
  return days;
}

}  // namespace agtram::trace
