// In-memory span recorder for the traced benchmark run.
//
// A span is a named [start, end) interval on one steady clock plus the span
// that was open when it began (its parent).  The benchmark opens spans only
// around its own calls into the library's public API, from the single
// load-generating thread, so spans nest strictly and never overlap their
// siblings.  Spans stay in memory and are written out once, after the run.
//
// Disabled tracers record nothing: Scope then costs one branch, so the
// untraced run measures the library with no benchmark bookkeeping between
// its calls.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two points of the benchmark's one clock.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  const char* name;  ///< string literal: "<layer>.<call>"
  double start;      ///< seconds since the tracer was created
  double end;
  int parent;        ///< index into spans(), -1 for a root span
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span as a child of the innermost open span; returns its index
  /// (-1 when disabled).
  int open(const char* name);
  void close(int id);

  /// Records an already measured interval as a closed child of the
  /// innermost open span (used for the serving engine's own timers, which
  /// split one run_batch call into route / re-converge / remainder).
  void add_closed(const char* name, double start, double end);

  double now() const { return seconds_between(origin_, Clock::now()); }

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

  /// Per span, the summed durations of its direct children.  Children never
  /// overlap (one thread opens every span), so a span's self time is its
  /// duration minus this.
  std::vector<double> child_seconds() const;

  /// Writes every span as one JSON array: [{"name","start","end","parent"}].
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.open(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
