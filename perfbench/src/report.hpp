// What one benchmark process measured, and how it is written out.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "drp/placement.hpp"
#include "drp/problem.hpp"

namespace perfbench {

/// One named number.  `samples` is the sample count behind a percentile or
/// median (0 for totals, counts and single measurements).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// One correctness check of the gate that runs after the measured phase.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Stage-sum record of one phase of the traced run: the phase span's wall
/// time against the summed durations of its direct child spans.
struct PhaseSum {
  std::string phase;
  int spans = 0;  ///< phase spans summed (one per instance)
  double wall_s = 0.0;
  double children_s = 0.0;
};

/// Self time of one span name ("<layer>.<call>") inside one phase of the
/// traced run.
struct SpanShare {
  std::string phase;
  std::string span;
  double self_s = 0.0;
};

struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  std::string size;
  bool traced = false;
  /// The metrics BENCHMARK.json declares, which every workload reports
  /// under the same names (end-to-end untraced; per-layer counts always,
  /// per-layer timings when traced).
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// The workload's own figures (its rates, tails and layer counts), for
  /// the report and the self-test; not part of the result line.
  std::vector<Metric> details;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Check> checks;
  std::map<std::string, std::string> digests;
  std::vector<PhaseSum> phases;
  std::vector<SpanShare> shares;

  void add_e2e(std::string name, double value, std::string unit,
               std::uint64_t samples = 0) {
    end_to_end.push_back({std::move(name), value, std::move(unit), samples});
  }
  void add_layer(std::string name, double value, std::string unit,
                 std::uint64_t samples = 0) {
    per_layer.push_back({std::move(name), value, std::move(unit), samples});
  }
  void add_detail(std::string name, double value, std::string unit,
                  std::uint64_t samples = 0) {
    details.push_back({std::move(name), value, std::move(unit), samples});
  }
  void check(std::string name, bool ok, std::string detail = {}) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
  bool all_checks_pass() const;
};

/// Linear-interpolated quantile of `samples` (q in [0, 1]); sorts a copy.
double quantile(std::vector<double> samples, double q);

/// FNV-1a over the byte image of trivially copyable values; order matters.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    add_bytes(&value, sizeof value);
  }
  void add_bytes(const void* data, std::size_t size);
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Digest of an instance: object sizes, primaries, capacities, and every
/// demand cell (server, reads, writes) in object order.
std::string problem_digest(const agtram::drp::Problem& problem);

/// Digest of a placement: every object's sorted replicator set.
std::string placement_digest(const agtram::drp::ReplicaPlacement& placement);

/// Peak resident set size of this process so far (VmHWM), in MB.
double peak_rss_mb();

/// Writes the result, with this process's provenance, as one JSON object.
void write_result_json(const Result& result, std::ostream& out);

}  // namespace perfbench
