// Shared percentile machinery for the bench harness (DESIGN.md §13).
//
// Every latency surface the benches report is a dense integer histogram:
// the serving engine's read-cost histogram is indexed by metric-closure
// path cost (bounded by the network diameter), so request-weighted
// percentiles are *exact*, not sampled: walk the cumulative counts.
// sim::replay's per-read latency distribution has the same shape.
//
// The rank convention is sim::replay's weighted_percentile (target rank =
// q/100 * (count - 1), first value whose cumulative weight exceeds it), so
// serving rows and latency_profile rows are comparable.
#pragma once

#include <cstdint>
#include <span>

namespace agtram::bench {

struct PercentileSummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Exact request-weighted percentiles of a dense histogram: hist[v] = how
/// many requests observed integer value v.
inline PercentileSummary summarize_histogram(
    std::span<const std::uint64_t> hist) {
  PercentileSummary out;
  double weighted = 0.0;
  for (std::size_t v = 0; v < hist.size(); ++v) {
    out.count += hist[v];
    weighted += static_cast<double>(hist[v]) * static_cast<double>(v);
    if (hist[v] != 0) out.max = static_cast<double>(v);
  }
  if (out.count == 0) return out;
  out.mean = weighted / static_cast<double>(out.count);
  const auto at = [&hist, &out](double q) {
    const auto target = static_cast<std::uint64_t>(
        q / 100.0 * static_cast<double>(out.count - 1));
    std::uint64_t seen = 0;
    for (std::size_t v = 0; v < hist.size(); ++v) {
      seen += hist[v];
      if (seen > target) return static_cast<double>(v);
    }
    return out.max;
  };
  out.p50 = at(50.0);
  out.p90 = at(90.0);
  out.p99 = at(99.0);
  return out;
}

}  // namespace agtram::bench
