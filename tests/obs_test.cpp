// Tests for agtram::obs: registry handle stability, exact counting under
// threads, span recording, trace-sink delivery, and the core invariant that
// instrumentation has no observable effect on the mechanism's allocation.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
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
    AGTRAM_OBS_ROUND(1);
  else
    AGTRAM_OBS_ROUND(2);
  EXPECT_EQ(c.value() - start, 2u);
}

// ---------------------------------------------------------------- trace

struct TestSink : obs::TraceSink {
  std::vector<std::uint64_t> rounds;
  std::vector<std::pair<std::string, double>> doubles;
  std::vector<std::pair<std::string, std::uint64_t>> ints;
  std::vector<std::pair<std::string, std::string>> strings;

  void round_begin(std::uint64_t round) override { rounds.push_back(round); }
  void gauge(std::string_view key, double value) override {
    doubles.emplace_back(std::string(key), value);
  }
  void gauge(std::string_view key, std::uint64_t value) override {
    ints.emplace_back(std::string(key), value);
  }
  void gauge(std::string_view key, std::string_view value) override {
    strings.emplace_back(std::string(key), std::string(value));
  }
};

TEST(ObsTraceTest, SinkReceivesRoundsAndGauges) {
  TestSink sink;
  obs::install_trace(&sink);
  AGTRAM_OBS_ROUND(3);
  AGTRAM_OBS_GAUGE("d", 1.5);
  AGTRAM_OBS_GAUGE("u", std::uint64_t{7});
  AGTRAM_OBS_GAUGE("s", std::string_view("x"));
  obs::install_trace(nullptr);

  ASSERT_EQ(sink.rounds.size(), 1u);
  EXPECT_EQ(sink.rounds[0], 3u);
  ASSERT_EQ(sink.doubles.size(), 1u);
  EXPECT_EQ(sink.doubles[0], (std::pair<std::string, double>{"d", 1.5}));
  ASSERT_EQ(sink.ints.size(), 1u);
  EXPECT_EQ(sink.ints[0].second, 7u);
  ASSERT_EQ(sink.strings.size(), 1u);
  EXPECT_EQ(sink.strings[0].second, "x");
}

TEST(ObsTraceTest, UninstallStopsDelivery) {
  TestSink sink;
  obs::install_trace(&sink);
  AGTRAM_OBS_ROUND(1);
  obs::install_trace(nullptr);
  EXPECT_EQ(obs::active_trace(), nullptr);
  AGTRAM_OBS_ROUND(2);
  AGTRAM_OBS_GAUGE("late", 1.0);
  ASSERT_EQ(sink.rounds.size(), 1u);
  EXPECT_TRUE(sink.doubles.empty());
}

// ------------------------------------------------------------ invariant

// Instrumentation must have no observable effect on the mechanism: a run
// with a trace sink installed (and the registry hot) produces exactly the
// allocation, payments, and round sequence of an untraced run.
TEST(ObsMechanismTest, TraceSinkDoesNotPerturbAllocation) {
  const drp::Problem p = testutil::small_instance();
  const core::MechanismResult plain = core::run_agt_ram(p);

  TestSink sink;
  core::MechanismResult traced = [&] {
    obs::install_trace(&sink);
    core::MechanismResult r = core::run_agt_ram(p);
    obs::install_trace(nullptr);
    return r;
  }();

  ASSERT_EQ(traced.rounds.size(), plain.rounds.size());
  for (std::size_t i = 0; i < plain.rounds.size(); ++i) {
    EXPECT_EQ(traced.rounds[i].winner, plain.rounds[i].winner);
    EXPECT_EQ(traced.rounds[i].object, plain.rounds[i].object);
    EXPECT_EQ(traced.rounds[i].claimed_value, plain.rounds[i].claimed_value);
    EXPECT_EQ(traced.rounds[i].payment, plain.rounds[i].payment);
  }
  EXPECT_EQ(traced.total_payments(), plain.total_payments());
  EXPECT_EQ(drp::CostModel::total_cost(traced.placement),
            drp::CostModel::total_cost(plain.placement));
  EXPECT_EQ(traced.placement.extra_replica_count(),
            plain.placement.extra_replica_count());
  // Round markers fire once per loop iteration, and not every iteration
  // allocates (the terminating poll never does), so delivered >= recorded.
  EXPECT_GE(sink.rounds.size(), plain.rounds.size());
  for (std::size_t i = 1; i < sink.rounds.size(); ++i) {
    EXPECT_EQ(sink.rounds[i], sink.rounds[i - 1] + 1);
  }
}

}  // namespace
