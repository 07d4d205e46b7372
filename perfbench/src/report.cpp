#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <thread>

#include "common/thread_pool.hpp"
#include "drp/kernels.hpp"
#include "obs/obs.hpp"

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto first = line.find_first_not_of(' ', colon + 1);
        return first == std::string::npos ? "" : line.substr(first);
      }
    }
  }
  return "unknown";
}

void write_metrics(const std::vector<Metric>& metrics, std::ostream& out) {
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << (i ? "," : "") << json_string(m.name) << ":{\"value\":"
        << json_number(m.value) << ",\"unit\":" << json_string(m.unit);
    if (m.samples != 0) out << ",\"samples\":" << m.samples;
    out << "}";
  }
  out << "}";
}

}  // namespace

bool Result::all_checks_pass() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= p[i];
    state_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

std::string problem_digest(const agtram::drp::Problem& problem) {
  Digest d;
  const std::size_t objects = problem.object_count();
  for (std::size_t k = 0; k < objects; ++k) {
    d.add(problem.object_units[k]);
    d.add(problem.primary[k]);
    for (const agtram::drp::Access& a :
         problem.access.accessors(static_cast<agtram::drp::ObjectIndex>(k))) {
      d.add(a.server);
      d.add(a.reads);
      d.add(a.writes);
    }
  }
  for (const std::uint64_t c : problem.capacity) d.add(c);
  return d.hex();
}

std::string placement_digest(const agtram::drp::ReplicaPlacement& placement) {
  Digest d;
  const std::size_t objects = placement.problem().object_count();
  for (std::size_t k = 0; k < objects; ++k) {
    const auto reps = placement.replicators(static_cast<agtram::drp::ObjectIndex>(k));
    d.add(reps.size());
    for (const agtram::drp::ServerId s : reps) d.add(s);
  }
  return d.hex();
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void write_result_json(const Result& r, std::ostream& out) {
  out << "{\"workload\":" << json_string(r.workload) << ",\"seed\":" << r.seed
      << ",\"size\":" << json_string(r.size)
      << ",\"traced\":" << (r.traced ? "true" : "false")
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"correct\":"
      << (r.failed == 0 && r.all_checks_pass() ? "true" : "false");
  out << ",\"end_to_end\":";
  write_metrics(r.end_to_end, out);
  out << ",\"per_layer\":";
  write_metrics(r.per_layer, out);
  out << ",\"details\":";
  write_metrics(r.details, out);
  out << ",\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    out << (i ? "," : "") << "{\"name\":" << json_string(c.name)
        << ",\"ok\":" << (c.ok ? "true" : "false")
        << ",\"detail\":" << json_string(c.detail) << "}";
  }
  out << "],\"digests\":{";
  bool first = true;
  for (const auto& [name, hex] : r.digests) {
    out << (first ? "" : ",") << json_string(name) << ":" << json_string(hex);
    first = false;
  }
  out << "},\"phases\":[";
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    const PhaseSum& p = r.phases[i];
    out << (i ? "," : "") << "{\"phase\":" << json_string(p.phase)
        << ",\"spans\":" << p.spans << ",\"wall_s\":" << json_number(p.wall_s)
        << ",\"children_s\":" << json_number(p.children_s) << "}";
  }
  out << "],\"shares\":[";
  for (std::size_t i = 0; i < r.shares.size(); ++i) {
    const SpanShare& s = r.shares[i];
    out << (i ? "," : "") << "{\"phase\":" << json_string(s.phase)
        << ",\"span\":" << json_string(s.span)
        << ",\"self_s\":" << json_number(s.self_s) << "}";
  }
  out << "],\"provenance\":{\"cpu\":" << json_string(cpu_model())
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"pool_threads\":"
      << agtram::common::ThreadPool::shared().thread_count()
      << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
      << ",\"simd_active\":"
      << (agtram::drp::kernels::simd_active() ? "true" : "false")
      << ",\"obs\":" << (AGTRAM_OBS ? "true" : "false") << "}}\n";
}

}  // namespace perfbench
