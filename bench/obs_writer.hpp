// bench::ObsWriter — bridges agtram::obs and the mechanism's observer into
// the bench outputs.
//
// Two outputs (DESIGN.md §9, EXPERIMENTS.md "Reading an --obs-trace"):
//
//  * an `obs` block merged into each bench row: the row's policy decisions
//    (ReportMode / EvalPath) with the inputs that shape them, plus the
//    registry counter/span deltas accumulated across the row's timing loop.
//
//  * a per-round JSONL dump (`--obs-trace <file>`): one meta line per traced
//    run (instance dims + decisions), then one line per mechanism round,
//    written by the traced run's core::MechanismObserver (dirty-set size,
//    winner, payment, ...).
#pragma once

#include <cstdint>
#include <fstream>
#include <limits>
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

/// The mechanism-side policy decisions for one bench row: the ReportMode
/// the run took, plus the pool size the agent build forks onto.
inline JsonWriter::Record mechanism_decisions(
    const core::AgtRamConfig& config) {
  JsonWriter::Record record;
  record.field("report_mode", report_mode_name(config.report_mode));
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

/// The --obs-trace writer: `meta` lines describing each traced run, and one
/// JSON object per round of the run it is set on as AgtRamConfig::observer.
/// The run calls it on the thread that runs the rounds, so plain buffered
/// writes suffice.
class JsonlTrace : public core::MechanismObserver {
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

  void on_round_begin(std::size_t round) override {
    flush_round();
    line_.field("kind", "round");
    line_.field("round", static_cast<std::uint64_t>(round));
    open_ = true;
  }

  /// Every live agent's standing report arrives each round (`live`), the
  /// recomputed ones fresh (`dirty`).  The centre allocates to the first
  /// highest claim, so that is the winner's.
  void on_report(drp::ServerId /*agent*/, const core::Report& report,
                 bool fresh) override {
    ++live_;
    dirty_ += fresh ? 1 : 0;
    if (report.has_candidate && report.claimed_value > claim_) {
      claim_ = report.claimed_value;
    }
  }

  void on_allocation(drp::ServerId winner, drp::ObjectIndex object,
                     double payment) override {
    write_counts();
    line_.field("winner", static_cast<std::uint64_t>(winner));
    line_.field("object", static_cast<std::uint64_t>(object));
    line_.field("claimed_value", claim_);
    line_.field("payment", payment);
  }

  void close() {
    flush_round();
    out_.flush();
  }

 private:
  void write_counts() {
    line_.field("dirty", dirty_).field("live", live_);
    counted_ = true;
  }

  /// Writes the open round; one that allocated nothing (a run's terminating
  /// round) gets its counts here.
  void flush_round() {
    if (!open_) return;
    if (!counted_) write_counts();
    out_ << line_.json() << '\n';
    line_ = JsonWriter::Record();
    open_ = counted_ = false;
    live_ = dirty_ = 0;
    claim_ = -std::numeric_limits<double>::infinity();
  }

  std::ofstream out_;
  JsonWriter::Record line_;
  bool open_ = false;
  bool counted_ = false;
  std::uint64_t live_ = 0;
  std::uint64_t dirty_ = 0;
  double claim_ = -std::numeric_limits<double>::infinity();
};

}  // namespace agtram::bench
