// agtram::obs — header-first observability: named monotonic counters,
// scoped span timers, and per-round trace gauges.
//
// The subsystem exists to make the auto-tuned policies visible (DESIGN.md
// §9): ReportMode::Auto and the baselines' EvalPath take decisions per
// instance that used to be invisible in the bench output.  Counters expose
// the internal work those decisions trade off (dirty-set re-polls, heap
// pops, delta-cache refreshes, chunks claimed, wire bytes); spans time
// coarse phases; the trace sink records per-round gauge snapshots next to
// the decision that produced them.  ScopedSpan is the library's only wall
// clock: a stage a result struct exports in seconds is one span's reading.
//
// Cost contract: the layer is compiled into every build.  A counter hit is
// one relaxed atomic add on a cached reference (the registry lookup happens
// once per site, at static-local initialisation).  Spans add two
// steady_clock reads and sit only at coarse boundaries.  Gauges are an
// acquire pointer load and branch unless a trace sink is installed.  The
// measured price on perfbench is in DESIGN.md §9.
//
// Invariant: instrumentation must have no observable effect on mechanism or
// baseline output — allocations, payments, and round sequences are byte-
// identical with and without a trace sink installed (tests/obs_test.cpp),
// and the hexfloat goldens of tests/layout_test.cpp run instrumented.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

// Every build is instrumented; the macro remains for code that reports it.
#define AGTRAM_OBS 1

namespace agtram::obs {

/// Named monotonic counter.  Registry-owned; addresses are stable for the
/// process lifetime, so call sites cache a reference once and pay one
/// relaxed fetch_add per hit afterwards.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  const std::string& name() const noexcept { return name_; }

  void add(std::uint64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// Named span aggregate: invocation count plus total wall nanoseconds.
/// Recorded through ScopedSpan; both fields are relaxed atomics so spans on
/// pool workers stay TSan-clean.
class Span {
 public:
  explicit Span(std::string name) : name_(std::move(name)) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  const std::string& name() const noexcept { return name_; }

  void record(std::uint64_t ns) noexcept {
    count_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t total_ns() const noexcept {
    return total_ns_.load(std::memory_order_relaxed);
  }

 private:
  std::string name_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_ns_{0};
};

/// The one wall clock: spans read it, and so does common::Timer.
using Clock = std::chrono::steady_clock;

/// RAII timer feeding a Span on scope exit.  With `seconds`, the same
/// reading is also added to that field; the field must outlive the scope.
/// A scope left by an exception records nothing, in the span or the field:
/// a refused batch or a thrown repair is not a stage that ran.
class ScopedSpan {
 public:
  explicit ScopedSpan(Span& span, double* seconds = nullptr) noexcept
      : span_(span),
        seconds_(seconds),
        exceptions_(std::uncaught_exceptions()),
        start_(Clock::now()) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (std::uncaught_exceptions() > exceptions_) return;
    const auto elapsed = Clock::now() - start_;
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    span_.record(ns);
    if (seconds_ != nullptr) *seconds_ += static_cast<double>(ns) * 1e-9;
  }

 private:
  Span& span_;
  double* seconds_;
  int exceptions_;
  Clock::time_point start_;
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value;
};

struct SpanSnapshot {
  std::string name;
  std::uint64_t count;
  std::uint64_t total_ns;
};

/// Process-wide registry of counters and spans.  Get-or-create is
/// mutex-guarded (cold: once per call site); reads of the handed-out
/// handles never take the lock.
class Registry {
 public:
  static Registry& instance();

  /// Get-or-create; the returned reference is valid forever.
  Counter& counter(std::string_view name);
  Span& span(std::string_view name);

  /// Snapshots in registration order (deterministic within one binary run).
  std::vector<CounterSnapshot> counters() const;
  std::vector<SpanSnapshot> spans() const;

 private:
  Registry() = default;
  struct Impl;
  Impl& impl();
  Impl* impl_ = nullptr;
};

/// Per-round trace consumer.  The mechanism emits `round_begin` once per
/// round and then gauges for that round; a sink is driven from the centre's
/// thread only (single-threaded contract — pool jobs never gauge).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void round_begin(std::uint64_t round) = 0;
  virtual void gauge(std::string_view key, double value) = 0;
  virtual void gauge(std::string_view key, std::uint64_t value) = 0;
  virtual void gauge(std::string_view key, std::string_view value) = 0;
};

/// Installs (or, with nullptr, removes) the process-wide trace sink.  The
/// caller owns the sink and must keep it alive until uninstalled.
void install_trace(TraceSink* sink) noexcept;
TraceSink* active_trace() noexcept;

}  // namespace agtram::obs

#define AGTRAM_OBS_CONCAT_IMPL_(a, b) a##b
#define AGTRAM_OBS_CONCAT_(a, b) AGTRAM_OBS_CONCAT_IMPL_(a, b)

/// One relaxed atomic add on a per-site cached counter reference.  `name`
/// is resolved once per call site (static-local init) and must therefore be
/// a constant — a runtime-varying name would silently keep hitting whatever
/// counter the first execution registered.
#define AGTRAM_OBS_COUNT(name, delta)                        \
  do {                                                       \
    static ::agtram::obs::Counter& agtram_obs_counter_ =     \
        ::agtram::obs::Registry::instance().counter(name);   \
    agtram_obs_counter_.add(                                 \
        static_cast<std::uint64_t>(delta));                  \
  } while (0)

/// Times the enclosing scope into the named span (two clock reads).  An
/// optional second argument, a `double` lvalue, receives the same reading
/// in seconds: AGTRAM_OBS_SPAN("srv.install", stats_.install_seconds).
// clang-format off
#define AGTRAM_OBS_SPAN(name, ...)                                        \
  static ::agtram::obs::Span& AGTRAM_OBS_CONCAT_(agtram_obs_span_ref_,    \
                                                 __LINE__) =              \
      ::agtram::obs::Registry::instance().span(name);                     \
  const ::agtram::obs::ScopedSpan AGTRAM_OBS_CONCAT_(                     \
      agtram_obs_span_, __LINE__) {                                       \
    AGTRAM_OBS_CONCAT_(agtram_obs_span_ref_, __LINE__)                    \
    __VA_OPT__(, &(__VA_ARGS__))                                          \
  }
// clang-format on

/// Opens round `round` on the installed trace sink, if any.
#define AGTRAM_OBS_ROUND(round)                                  \
  do {                                                           \
    if (::agtram::obs::TraceSink* agtram_obs_sink_ =             \
            ::agtram::obs::active_trace()) {                     \
      agtram_obs_sink_->round_begin(                             \
          static_cast<std::uint64_t>(round));                    \
    }                                                            \
  } while (0)

/// Records a gauge on the current round of the installed sink, if any.
#define AGTRAM_OBS_GAUGE(key, value)                             \
  do {                                                           \
    if (::agtram::obs::TraceSink* agtram_obs_sink_ =             \
            ::agtram::obs::active_trace()) {                     \
      agtram_obs_sink_->gauge(key, value);                       \
    }                                                            \
  } while (0)
