// Summary statistics: streaming moments for the bench harness (the
// truthfulness margins of bench/ablation_payment), and the one
// request-weighted read-cost summary (sim::replay, bench/serving_replay).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace agtram::common {

/// Request-weighted read costs (metric-closure hops per read).
struct LatencySummary {
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double worst = 0.0;
  /// Fraction of reads served locally (cost 0).
  double local_fraction = 0.0;
};

/// Summarises (cost, reads) samples given in any order; a cost may repeat.
/// Percentile q is the first cost, ascending, whose cumulative reads exceed
/// floor(q/100 * (reads - 1)).  Costs and reads are integers, so the mean
/// is exact in any summation order while sum(cost * reads) stays below
/// 2^53.  All zeros when there are no reads.
LatencySummary summarize_read_costs(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> samples);

/// Welford online mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ ? mean_ : 0.0; }
  double variance() const noexcept;  ///< sample variance (n-1 denominator)
  double stddev() const noexcept;
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }
  double sum() const noexcept { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace agtram::common
