#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace agtram::common {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

LatencySummary summarize_read_costs(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary out;
  std::uint64_t reads = 0;
  std::uint64_t local = 0;
  double weighted = 0.0;
  for (const auto& [cost, weight] : samples) {
    reads += weight;
    weighted += static_cast<double>(cost) * static_cast<double>(weight);
    if (cost == 0) local += weight;
    if (weight != 0) out.worst = static_cast<double>(cost);
  }
  if (reads == 0) return out;
  out.mean = weighted / static_cast<double>(reads);
  out.local_fraction = static_cast<double>(local) / static_cast<double>(reads);
  const auto at = [&samples, reads](double q) {
    const auto target = static_cast<std::uint64_t>(
        q / 100.0 * static_cast<double>(reads - 1));
    std::uint64_t seen = 0;
    for (const auto& [cost, weight] : samples) {
      seen += weight;
      if (seen > target) return static_cast<double>(cost);
    }
    return 0.0;  // unreachable: the last sample brings seen to reads
  };
  out.p50 = at(50.0);
  out.p90 = at(90.0);
  out.p99 = at(99.0);
  return out;
}

}  // namespace agtram::common
