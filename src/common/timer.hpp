// Wall-clock stopwatch for the benches, examples, tools and tests, on the
// obs clock.  Library code times its stages with obs spans instead.
#pragma once

#include <chrono>

#include "obs/obs.hpp"

namespace agtram::common {

class Timer {
 public:
  Timer() : start_(obs::Clock::now()) {}

  void reset() { start_ = obs::Clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(obs::Clock::now() - start_).count();
  }
  double millis() const { return seconds() * 1e3; }

 private:
  obs::Clock::time_point start_;
};

}  // namespace agtram::common
