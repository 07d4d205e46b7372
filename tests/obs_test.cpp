// Tests for agtram::obs: registry handle stability, exact counting under
// threads and span recording; and the per-round observer contract the
// --obs-trace writer reads, which must leave the allocation untouched.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/agt_ram.hpp"
#include "drp/cost_model.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;

// ------------------------------------------------------------- registry

TEST(ObsRegistryTest, CounterHandleIsStablePerName) {
  obs::Counter& a = obs::Registry::instance().counter("obs_test.stable");
  obs::Counter& b = obs::Registry::instance().counter("obs_test.stable");
  EXPECT_EQ(&a, &b);
  obs::Span& s = obs::Registry::instance().span("obs_test.stable_span");
  EXPECT_EQ(&obs::Registry::instance().span("obs_test.stable_span"), &s);
}

TEST(ObsRegistryTest, SnapshotsCarryRegisteredNames) {
  obs::Registry::instance().counter("obs_test.snap").add(5);
  obs::Registry::instance().span("obs_test.snap_span").record(7);
  bool saw_counter = false;
  for (const obs::CounterSnapshot& c : obs::Registry::instance().counters()) {
    if (c.name == "obs_test.snap") {
      saw_counter = true;
      EXPECT_GE(c.value, 5u);
    }
  }
  bool saw_span = false;
  for (const obs::SpanSnapshot& s : obs::Registry::instance().spans()) {
    if (s.name == "obs_test.snap_span") {
      saw_span = true;
      EXPECT_GE(s.count, 1u);
      EXPECT_GE(s.total_ns, 7u);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_span);
}

// --------------------------------------------------------------- macros

TEST(ObsMacroTest, CountAccumulatesExactly) {
  obs::Counter& c = obs::Registry::instance().counter("obs_test.accumulate");
  const std::uint64_t start = c.value();
  for (int i = 0; i < 10; ++i) {
    AGTRAM_OBS_COUNT("obs_test.accumulate", 2);
  }
  EXPECT_EQ(c.value() - start, 20u);
}

TEST(ObsMacroTest, SpanRecordsEveryScope) {
  obs::Span& s = obs::Registry::instance().span("obs_test.scoped");
  const std::uint64_t start = s.count();
  for (int i = 0; i < 3; ++i) {
    AGTRAM_OBS_SPAN("obs_test.scoped");
  }
  EXPECT_EQ(s.count() - start, 3u);
}

TEST(ObsMacroTest, ThreadedCountsAreExact) {
  obs::Counter& c = obs::Registry::instance().counter("obs_test.threads");
  const std::uint64_t start = c.value();
  constexpr int kThreads = 4;
  constexpr int kHits = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kHits; ++i) {
        AGTRAM_OBS_COUNT("obs_test.threads", 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value() - start,
            static_cast<std::uint64_t>(kThreads) * kHits);
}

TEST(ObsMacroTest, PoolParallelCountsAreExact) {
  obs::Counter& c = obs::Registry::instance().counter("obs_test.pool");
  const std::uint64_t start = c.value();
  constexpr std::size_t kRange = 5000;
  common::ThreadPool::shared().parallel_for(
      0, kRange,
      [](std::size_t first, std::size_t last) {
        for (std::size_t i = first; i < last; ++i) {
          AGTRAM_OBS_COUNT("obs_test.pool", 1);
        }
      },
      /*min_grain=*/16);
  EXPECT_EQ(c.value() - start, kRange);
}

TEST(ObsMacroTest, MacrosCompileInControlFlowPositions) {
  // Single-statement bodies: the do/while(0) shape must swallow the
  // semicolon wherever a statement is legal.
  obs::Counter& c = obs::Registry::instance().counter("obs_test.flow");
  const std::uint64_t start = c.value();
  for (int i = 0; i < 2; ++i) AGTRAM_OBS_COUNT("obs_test.flow", 1);
  if (true)
    AGTRAM_OBS_COUNT("obs_test.flow", 1);
  else
    AGTRAM_OBS_COUNT("obs_test.flow", 10);
  EXPECT_EQ(c.value() - start, 3u);
}

// ------------------------------------------------------------- observer

// What a run's observer hears, round by round: the round numbers, each
// round's report count and first highest claim, and each allocation.
struct RoundLog final : core::MechanismObserver {
  std::vector<std::size_t> rounds;
  std::vector<std::size_t> reports;
  std::vector<double> best_claims;
  std::vector<core::RoundRecord> allocations;  // true_value unused

  void on_round_begin(std::size_t round) override {
    rounds.push_back(round);
    reports.push_back(0);
    best_claims.push_back(-std::numeric_limits<double>::infinity());
  }
  void on_report(drp::ServerId, const core::Report& report, bool) override {
    ++reports.back();
    if (report.has_candidate && report.claimed_value > best_claims.back()) {
      best_claims.back() = report.claimed_value;
    }
  }
  void on_allocation(drp::ServerId winner, drp::ObjectIndex object,
                     double payment) override {
    allocations.push_back({winner, object, 0.0, 0.0, payment});
  }
};

// The contract the --obs-trace lines are built from: an observed run
// allocates exactly as an unobserved one; on_round_begin numbers the
// rounds 0..R, the last being the terminating round, which has no
// candidate; each allocation mirrors its RoundRecord and carries the
// first highest claim of its round; and both report modes hand the
// observer the same live set each round.
TEST(ObsMechanismTest, ObserverSeesEveryRoundWithoutPerturbingIt) {
  const drp::Problem p = testutil::small_instance();
  std::vector<std::size_t> report_counts[2];
  for (const core::ReportMode mode :
       {core::ReportMode::Naive, core::ReportMode::Incremental}) {
    SCOPED_TRACE(mode == core::ReportMode::Naive ? "naive" : "incremental");
    core::AgtRamConfig cfg;
    cfg.report_mode = mode;
    const core::MechanismResult plain = core::run_agt_ram(p, cfg);
    RoundLog log;
    cfg.observer = &log;
    const core::MechanismResult observed = core::run_agt_ram(p, cfg);

    const std::size_t r = plain.rounds.size();
    ASSERT_GT(r, 0u);
    ASSERT_EQ(observed.rounds.size(), r);
    EXPECT_EQ(drp::CostModel::total_cost(observed.placement),
              drp::CostModel::total_cost(plain.placement));
    ASSERT_EQ(log.rounds.size(), r + 1);
    ASSERT_EQ(log.allocations.size(), r);
    for (std::size_t i = 0; i <= r; ++i) EXPECT_EQ(log.rounds[i], i);
    for (std::size_t i = 0; i < r; ++i) {
      const core::RoundRecord& want = plain.rounds[i];
      EXPECT_EQ(observed.rounds[i].winner, want.winner);
      EXPECT_EQ(observed.rounds[i].object, want.object);
      EXPECT_EQ(observed.rounds[i].claimed_value, want.claimed_value);
      EXPECT_EQ(observed.rounds[i].payment, want.payment);
      EXPECT_EQ(log.allocations[i].winner, want.winner);
      EXPECT_EQ(log.allocations[i].object, want.object);
      EXPECT_EQ(log.allocations[i].payment, want.payment);
      EXPECT_EQ(log.best_claims[i], want.claimed_value);
    }
    EXPECT_EQ(log.best_claims[r], -std::numeric_limits<double>::infinity());
    report_counts[mode == core::ReportMode::Incremental] = log.reports;
  }
  EXPECT_EQ(report_counts[0], report_counts[1]);
}

}  // namespace
