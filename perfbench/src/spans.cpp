#include "spans.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 14);
}

int Tracer::open(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  const double start = now();
  spans_.push_back(SpanRecord{name, start, start, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  const double end = now();
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end = end;
}

void Tracer::add_closed(const char* name, double start, double end) {
  if (!enabled_) return;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(SpanRecord{name, start, end, parent});
}

std::vector<double> Tracer::child_seconds() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  return covered;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  out << "[";
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%d}",
                  i == 0 ? "" : ",", s.name, s.start, s.end, s.parent);
    out << line;
  }
  out << "\n]\n";
  if (!out) throw std::runtime_error("perfbench: short write to " + path);
}

}  // namespace perfbench
