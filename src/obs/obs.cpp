#include "obs/obs.hpp"

#include <deque>
#include <map>
#include <mutex>

namespace agtram::obs {

// Counters and spans live in deques so handed-out references stay valid as
// the registry grows; the map only indexes into them.  The instance itself
// is leaked (function-local static pointer) so handles cached in static
// locals of other TUs stay safe during static destruction.
struct Registry::Impl {
  mutable std::mutex mutex;
  std::deque<Counter> counters;
  std::deque<Span> spans;
  std::map<std::string, Counter*, std::less<>> counter_index;
  std::map<std::string, Span*, std::less<>> span_index;
};

Registry& Registry::instance() {
  static Registry* registry = new Registry();
  return *registry;
}

Registry::Impl& Registry::impl() {
  if (impl_ == nullptr) {
    impl_ = new Impl();
  }
  return *impl_;
}

Counter& Registry::counter(std::string_view name) {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (auto it = state.counter_index.find(name);
      it != state.counter_index.end()) {
    return *it->second;
  }
  Counter& created = state.counters.emplace_back(std::string(name));
  state.counter_index.emplace(created.name(), &created);
  return created;
}

Span& Registry::span(std::string_view name) {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (auto it = state.span_index.find(name); it != state.span_index.end()) {
    return *it->second;
  }
  Span& created = state.spans.emplace_back(std::string(name));
  state.span_index.emplace(created.name(), &created);
  return created;
}

std::vector<CounterSnapshot> Registry::counters() const {
  Impl& state = const_cast<Registry*>(this)->impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  std::vector<CounterSnapshot> out;
  out.reserve(state.counters.size());
  for (const Counter& counter : state.counters) {
    out.push_back({counter.name(), counter.value()});
  }
  return out;
}

std::vector<SpanSnapshot> Registry::spans() const {
  Impl& state = const_cast<Registry*>(this)->impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  std::vector<SpanSnapshot> out;
  out.reserve(state.spans.size());
  for (const Span& span : state.spans) {
    out.push_back({span.name(), span.count(), span.total_ns()});
  }
  return out;
}

}  // namespace agtram::obs
