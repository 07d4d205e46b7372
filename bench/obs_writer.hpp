// bench::ObsWriter — bridges agtram::obs into the bench JSON rows.
//
// Two outputs (DESIGN.md §9, EXPERIMENTS.md "Reading an --obs-trace"):
//
//  * an `obs` block merged into each bench row: the Auto-policy decisions
//    (ReportMode / EvalPath) with the exact inputs and thresholds that
//    decided them, plus the registry counter/span deltas accumulated across
//    the row's timing loop.
//
//  * a per-round JSONL dump (`--obs-trace <file>`): one meta line per traced
//    run (instance dims + decisions), then one line per mechanism round with
//    that round's gauges (dirty-set size, winner, payment, ...).
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/thread_pool.hpp"
#include "core/agt_ram.hpp"
#include "drp/delta_evaluator.hpp"
#include "obs/obs.hpp"

namespace agtram::bench {

/// Counter/span registry snapshot; subtract two to get what one timing loop
/// cost.  Registration order is stable within a run, so pairwise deltas by
/// name are computed against a name-indexed copy.
struct ObsSnapshot {
  std::vector<obs::CounterSnapshot> counters;
  std::vector<obs::SpanSnapshot> spans;

  static ObsSnapshot take() {
    ObsSnapshot snap;
    snap.counters = obs::Registry::instance().counters();
    snap.spans = obs::Registry::instance().spans();
    return snap;
  }

  std::uint64_t counter(std::string_view name) const {
    for (const auto& c : counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  }

  std::pair<std::uint64_t, std::uint64_t> span(std::string_view name) const {
    for (const auto& s : spans) {
      if (s.name == name) return {s.count, s.total_ns};
    }
    return {0, 0};
  }
};

/// Counter deltas (after - before) as a flat record; spans contribute
/// "<name>.count" and "<name>.total_ns" keys.  Counters that did not move
/// are dropped so quiet subsystems don't bloat the rows.
inline JsonWriter::Record obs_delta_record(const ObsSnapshot& before,
                                           const ObsSnapshot& after) {
  JsonWriter::Record record;
  for (const auto& c : after.counters) {
    const std::uint64_t delta = c.value - before.counter(c.name);
    if (delta != 0) record.field(c.name, delta);
  }
  for (const auto& s : after.spans) {
    const auto [count0, ns0] = before.span(s.name);
    if (s.count == count0 && s.total_ns == ns0) continue;
    record.field(s.name + ".count", s.count - count0);
    record.field(s.name + ".total_ns", s.total_ns - ns0);
  }
  return record;
}

/// The mechanism-side policy decisions for one bench row: how the requested
/// ReportMode resolved and the signals/thresholds behind the Auto pick, plus
/// the pool size the agent build forks onto.
inline JsonWriter::Record mechanism_decisions(
    const drp::Problem& problem, const core::AgtRamConfig& config) {
  const core::AutoPolicyDecision decision = core::explain_report_mode(
      problem, problem.server_count(), config.report_mode);
  JsonWriter::Record record;
  record.field("report_mode_requested", report_mode_name(decision.requested));
  record.field("report_mode_resolved", report_mode_name(decision.resolved));
  record.field("auto_size_biased_readers", decision.size_biased_readers);
  record.field("auto_effective_hot_objects", decision.effective_hot_objects);
  record.field("auto_agent_count",
               static_cast<std::uint64_t>(decision.agent_count));
  record.field("auto_incremental_fraction", decision.incremental_fraction);
  record.field("auto_min_effective_hot_objects",
               decision.min_effective_hot_objects);
  record.field("auto_dirty_is_local", decision.dirty_is_local);
  record.field("auto_demand_is_dispersed", decision.demand_is_dispersed);
  record.field("pool_workers",
               static_cast<std::uint64_t>(
                   common::ThreadPool::shared().thread_count()));
  return record;
}

/// The baseline-side policy decisions: EvalPath plus the inputs the
/// server-axis candidate scan forks on (it forks only when the instance
/// clears DeltaEvaluator::kParallelMinServers on a multi-worker pool).
inline JsonWriter::Record baseline_decisions(const drp::Problem& problem,
                                             bool delta_eval) {
  JsonWriter::Record record;
  record.field("eval_path", delta_eval ? "delta" : "naive");
  record.field("scan_min_servers",
               static_cast<std::uint64_t>(
                   drp::DeltaEvaluator::kParallelMinServers));
  record.field("scan_servers",
               static_cast<std::uint64_t>(problem.server_count()));
  record.field("pool_workers",
               static_cast<std::uint64_t>(
                   common::ThreadPool::shared().thread_count()));
  return record;
}

/// Assembles the `obs` block for one bench row: the decisions and the
/// counter deltas across the row's runs, with the repetition count needed
/// to normalise them.
inline JsonWriter::Record obs_block(JsonWriter::Record decisions,
                                    const ObsSnapshot& before,
                                    const ObsSnapshot& after,
                                    std::uint64_t runs) {
  JsonWriter::Record record;
  record.field("runs", runs);
  record.object_field("decisions", decisions);
  record.object_field("counters", obs_delta_record(before, after));
  return record;
}

/// obs::TraceSink writing one JSON object per mechanism round, plus `meta`
/// lines describing the traced run.  Driven from the centre's thread only
/// (the TraceSink contract), so plain buffered writes suffice.
class JsonlTrace : public obs::TraceSink {
 public:
  explicit JsonlTrace(const std::string& path) : out_(path) {}

  JsonlTrace(const JsonlTrace&) = delete;
  JsonlTrace& operator=(const JsonlTrace&) = delete;

  ~JsonlTrace() override { close(); }

  bool ok() const { return static_cast<bool>(out_); }

  /// Emits {"kind": "meta", ...record} — call before the traced run.
  void meta(const JsonWriter::Record& record) {
    flush_round();
    JsonWriter::Record line;
    line.field("kind", "meta");
    line.object_field("data", record);
    out_ << line.json() << '\n';
  }

  void round_begin(std::uint64_t round) override {
    flush_round();
    line_.field("kind", "round");
    line_.field("round", round);
    open_ = true;
  }

  void gauge(std::string_view key, double value) override {
    if (open_) line_.field(std::string(key), value);
  }
  void gauge(std::string_view key, std::uint64_t value) override {
    if (open_) line_.field(std::string(key), value);
  }
  void gauge(std::string_view key, std::string_view value) override {
    if (open_) line_.field(std::string(key), std::string(value));
  }

  void close() {
    flush_round();
    out_.flush();
  }

 private:
  void flush_round() {
    if (open_) {
      out_ << line_.json() << '\n';
      line_ = JsonWriter::Record();
      open_ = false;
    }
  }

  std::ofstream out_;
  JsonWriter::Record line_;
  bool open_ = false;
};

/// Scoped install of a JsonlTrace as the process trace sink.
class ScopedTrace {
 public:
  explicit ScopedTrace(JsonlTrace& trace) { obs::install_trace(&trace); }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
  ~ScopedTrace() { obs::install_trace(nullptr); }
};

}  // namespace agtram::bench
