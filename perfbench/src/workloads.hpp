// The benchmark's four workloads.  Each one drives the library only through
// its public API, does a fixed amount of work that the workload, size and
// seed determine (never a wall-clock budget), and runs a correctness gate
// after its measured phase.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

/// `small` selects the self-test size: the same code paths on instances
/// that take well under a second.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool small = false;
};

/// Stage-sum tolerance of the traced run: a phase's wall time may exceed the
/// summed durations of its direct child spans by at most this share of the
/// phase plus this many seconds per phase span (loop and clock-read
/// overhead between spans).
inline constexpr double kStageSumRelTolerance = 0.005;
inline constexpr double kStageSumAbsTolerance = 0.001;

/// Runs one workload; spans are recorded only when `tracer` is enabled.
/// Throws std::invalid_argument on an unknown workload name.
Result run_workload(const Options& options, Tracer& tracer);

}  // namespace perfbench
