// Unit tests for src/common: PRNG, distributions, stats, thread pool,
// table/CSV output, and the CLI parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/distributions.hpp"
#include "common/prng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace {

using namespace agtram::common;

// ---------------------------------------------------------------- PRNG

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(8);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(9);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(12);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng parent(42);
  Rng childA = parent.fork(1);
  Rng childB = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (childA() == childB());
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkIsDeterministic) {
  Rng p1(42), p2(42);
  Rng c1 = p1.fork(9), c2 = p2.fork(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c1(), c2());
}

// ------------------------------------------------------- distributions

TEST(ZipfSampler, PmfSumsToOne) {
  ZipfSampler zipf(100, 0.9);
  double sum = 0.0;
  for (std::size_t i = 0; i < zipf.size(); ++i) sum += zipf.pmf(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfSampler, PmfIsMonotoneDecreasing) {
  ZipfSampler zipf(50, 1.1);
  for (std::size_t i = 1; i < zipf.size(); ++i) {
    EXPECT_LE(zipf.pmf(i), zipf.pmf(i - 1));
  }
}

TEST(ZipfSampler, EmpiricalMatchesPmf) {
  ZipfSampler zipf(20, 1.0);
  Rng rng(5);
  std::vector<int> counts(20, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf(rng)];
  for (std::size_t r = 0; r < 20; ++r) {
    const double expected = zipf.pmf(r) * n;
    EXPECT_NEAR(counts[r], expected, 5.0 * std::sqrt(expected) + 10.0)
        << "rank " << r;
  }
}

TEST(ZipfSampler, HigherExponentConcentratesMass) {
  ZipfSampler flat(100, 0.5), steep(100, 1.5);
  EXPECT_LT(flat.pmf(0), steep.pmf(0));
}

TEST(LognormalSampler, MedianIsExpMu) {
  LognormalSampler dist(2.0, 0.7);
  Rng rng(6);
  std::vector<double> sample;
  for (int i = 0; i < 50000; ++i) sample.push_back(dist(rng));
  const auto median = sample.begin() + sample.size() / 2;
  std::nth_element(sample.begin(), median, sample.end());
  EXPECT_NEAR(*median, std::exp(2.0), 0.25);
}

TEST(LognormalSampler, AllPositive) {
  LognormalSampler dist(0.0, 2.0);
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(dist(rng), 0.0);
}

TEST(BoundedPareto, StaysInBounds) {
  BoundedParetoSampler dist(1.2, 1.0, 500.0);
  Rng rng(8);
  for (int i = 0; i < 20000; ++i) {
    const double v = dist(rng);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 500.0 + 1e-9);
  }
}

TEST(BoundedPareto, IsHeavyTailedTowardsLowerBound) {
  BoundedParetoSampler dist(1.5, 1.0, 1000.0);
  Rng rng(9);
  int below10 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) below10 += (dist(rng) < 10.0);
  EXPECT_GT(below10, n * 8 / 10);  // most mass near the lower bound
}

// --------------------------------------------------------------- stats

TEST(RunningStats, MatchesNaiveComputation) {
  const std::vector<double> xs{1.5, -2.0, 7.25, 0.0, 3.5, 3.5};
  RunningStats stats;
  for (double x : xs) stats.add(x);
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_EQ(stats.count(), xs.size());
  EXPECT_NEAR(stats.mean(), mean, 1e-12);
  EXPECT_NEAR(stats.variance(), var, 1e-12);
  EXPECT_EQ(stats.min(), -2.0);
  EXPECT_EQ(stats.max(), 7.25);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(10);
  RunningStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5, 5);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.mean(), 3.0);
}

// Unsorted samples, a repeated cost and costs without reads: percentile q
// is the first cost whose cumulative reads exceed floor(q/100 * (reads-1)).
TEST(ReadCostSummary, HandComputedRanks) {
  const LatencySummary s =
      summarize_read_costs({{3, 1}, {0, 2}, {9, 0}, {3, 1}, {7, 1}, {1, 0}});
  EXPECT_EQ(s.mean, 13.0 / 5.0);
  EXPECT_EQ(s.p50, 3.0);  // target 2: 2 reads at cost 0, then 3
  EXPECT_EQ(s.p90, 3.0);  // target 3: the second 3 takes it to 4
  EXPECT_EQ(s.p99, 3.0);
  EXPECT_EQ(s.worst, 7.0);  // cost 9 has no reads
  EXPECT_EQ(s.local_fraction, 2.0 / 5.0);

  const LatencySummary none = summarize_read_costs({{4, 0}});
  EXPECT_EQ(none.mean, 0.0);
  EXPECT_EQ(none.p99, 0.0);
  EXPECT_EQ(none.worst, 0.0);
}

// --------------------------------------------------------- thread pool

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(0, hits.size(), [&](std::size_t a, std::size_t b) {
    for (std::size_t i = a; i < b; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, TinyRangeRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  pool.parallel_for(0, 3, [&](std::size_t a, std::size_t b) {
    sum += static_cast<int>(b - a);
  });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ThreadPoolTest, SharedPoolSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  EXPECT_GE(ThreadPool::shared().thread_count(), 1u);
}

TEST(ThreadPoolTest, NestedParallelForFallsBackInline) {
  // A chunk body that calls parallel_for on the same pool must not deadlock:
  // the inner call loses the owner try-lock and runs its range inline.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4096);
  pool.parallel_for(
      0, hits.size(),
      [&](std::size_t a, std::size_t b) {
        pool.parallel_for(
            a, b,
            [&](std::size_t ia, std::size_t ib) {
              for (std::size_t i = ia; i < ib; ++i) hits[i].fetch_add(1);
            },
            /*min_grain=*/1);
      },
      /*min_grain=*/64);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentCallersEachCoverTheirRange) {
  // Two external threads race parallel_for on one pool; whoever loses the
  // owner lock runs inline.  Every element of both ranges must still be
  // visited exactly once, with no use of a freed job descriptor.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> first(8192), second(8192);
  auto drive = [&pool](std::vector<std::atomic<int>>& hits) {
    for (int rep = 0; rep < 50; ++rep) {
      pool.parallel_for(
          0, hits.size(),
          [&](std::size_t a, std::size_t b) {
            for (std::size_t i = a; i < b; ++i) hits[i].fetch_add(1);
          },
          /*min_grain=*/16);
    }
  };
  std::thread t1([&] { drive(first); });
  std::thread t2([&] { drive(second); });
  t1.join();
  t2.join();
  for (const auto& h : first) EXPECT_EQ(h.load(), 50);
  for (const auto& h : second) EXPECT_EQ(h.load(), 50);
}

TEST(ThreadPoolTest, GrainOneOuterJobsIssueInnerParallelFor) {
  // The tiled regional engine's fan-out shape: an outer parallel_for with
  // min_grain=1 (one chunk per region) whose bodies each issue an inner
  // parallel_for over their own slice.  The inner calls must take the
  // inline fallback — no deadlock, no oversubscription, every element
  // visited exactly once.
  ThreadPool pool(4);
  constexpr std::size_t kRegions = 16;
  constexpr std::size_t kPerRegion = 512;
  std::vector<std::atomic<int>> hits(kRegions * kPerRegion);
  pool.parallel_for(
      0, kRegions,
      [&](std::size_t ra, std::size_t rb) {
        for (std::size_t r = ra; r < rb; ++r) {
          pool.parallel_for(
              r * kPerRegion, (r + 1) * kPerRegion,
              [&](std::size_t a, std::size_t b) {
                for (std::size_t i = a; i < b; ++i) hits[i].fetch_add(1);
              },
              /*min_grain=*/8);
        }
      },
      /*min_grain=*/1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

/// True once every index of a fresh job on `pool` ran exactly once.
bool pool_covers_range(ThreadPool& pool) {
  std::vector<std::atomic<int>> hits(4096);
  pool.parallel_for(
      0, hits.size(),
      [&](std::size_t a, std::size_t b) {
        for (std::size_t i = a; i < b; ++i) hits[i].fetch_add(1);
      },
      /*min_grain=*/1);
  for (const auto& h : hits) {
    if (h.load() != 1) return false;
  }
  return true;
}

TEST(ThreadPoolTest, ChunkThrowingOnAWorkerRethrowsOnTheCaller) {
  // The caller's chunks wait (bounded) until a worker has thrown, so the
  // failure happens off the calling thread and must cross to the caller.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<bool> worker_threw{false};
  EXPECT_THROW(pool.parallel_for(
                   0, 64,
                   [&](std::size_t, std::size_t) {
                     if (std::this_thread::get_id() != caller) {
                       worker_threw = true;
                       throw std::runtime_error("worker chunk");
                     }
                     while (!worker_threw &&
                            std::chrono::steady_clock::now() < deadline) {
                       std::this_thread::yield();
                     }
                   },
                   /*min_grain=*/1),
               std::runtime_error);
  EXPECT_TRUE(worker_threw);
  EXPECT_TRUE(pool_covers_range(pool));
}

TEST(ThreadPoolTest, ChunkThrowingOnTheCallerWaitsForWorkers) {
  // The caller throws once a worker is inside a chunk, and that worker keeps
  // running past the throw.  The job on the caller's stack must outlive it,
  // so no chunk may finish after parallel_for has rethrown.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<bool> worker_started{false};
  std::atomic<bool> caller_threw{false};
  std::atomic<int> worker_chunks{0};
  EXPECT_THROW(pool.parallel_for(
                   0, 64,
                   [&](std::size_t, std::size_t) {
                     if (std::this_thread::get_id() == caller) {
                       while (!worker_started &&
                              std::chrono::steady_clock::now() < deadline) {
                         std::this_thread::yield();
                       }
                       caller_threw = true;
                       throw std::runtime_error("caller chunk");
                     }
                     worker_started = true;
                     while (!caller_threw &&
                            std::chrono::steady_clock::now() < deadline) {
                       std::this_thread::yield();
                     }
                     std::this_thread::sleep_for(std::chrono::milliseconds(2));
                     worker_chunks.fetch_add(1);
                   },
                   /*min_grain=*/1),
               std::runtime_error);
  const int finished = worker_chunks.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(worker_chunks.load(), finished);
  EXPECT_TRUE(pool_covers_range(pool));
}

// --------------------------------------------------------------- table

TEST(TableTest, PrintsAlignedCells) {
  Table t({"alg", "value"});
  t.add_row({"Greedy", "1.5"});
  t.add_row({"AGT-RAM", "10.25"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("AGT-RAM"), std::string::npos);
  EXPECT_NE(out.find("Greedy"), std::string::npos);
  EXPECT_NE(out.find("+--"), std::string::npos);  // box rules
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.5), "50.0%");
}

// ----------------------------------------------------------------- cli

TEST(CliTest, DefaultsAndOverrides) {
  Cli cli("test");
  cli.add_flag("alpha", "1.5", "a flag");
  cli.add_flag("name", "x", "another");
  const char* argv[] = {"prog", "--alpha", "2.5"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_double("alpha"), 2.5);
  EXPECT_EQ(cli.get("name"), "x");
}

TEST(CliTest, EqualsSyntax) {
  Cli cli("test");
  cli.add_flag("n", "1", "count");
  const char* argv[] = {"prog", "--n=42"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_unsigned<std::uint32_t>("n"), 42u);
}

TEST(CliTest, HelpRequestedDistinguishedFromErrors) {
  Cli help_cli("test");
  const char* help_argv[] = {"prog", "--help"};
  EXPECT_FALSE(help_cli.parse(2, help_argv));
  EXPECT_TRUE(help_cli.help_requested());

  Cli error_cli("test");
  const char* bad_argv[] = {"prog", "--nope", "1"};
  EXPECT_FALSE(error_cli.parse(3, bad_argv));
  EXPECT_FALSE(error_cli.help_requested());
}

TEST(CliTest, UnknownFlagFails) {
  Cli cli("test");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(cli.parse(3, argv));
}

TEST(CliTest, MissingValueFails) {
  Cli cli("test");
  cli.add_flag("x", "0", "x");
  const char* argv[] = {"prog", "--x"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(CliTest, DoubleList) {
  Cli cli("test");
  cli.add_flag("caps", "0.1,0.2,0.3", "list");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  const auto caps = cli.get_double_list("caps");
  ASSERT_EQ(caps.size(), 3u);
  EXPECT_EQ(caps[1], 0.2);
}

TEST(CliTest, BoolParsing) {
  Cli cli("test");
  cli.add_flag("flag", "false", "b");
  const char* argv[] = {"prog", "--flag", "true"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_TRUE(cli.get_bool("flag"));
}

// A value that does not read as its flag's type is refused, naming the flag
// and the value, instead of being truncated, wrapped or rounded.
TEST(CliTest, MalformedValuesAreRefused) {
  Cli cli("test");
  cli.add_flag("n", "1", "count");
  cli.add_flag("x", "0.5", "number");
  cli.add_flag("b", "false", "switch");
  cli.add_flag("list", "1,2", "counts");
  const auto refusal = [&cli](const char* flag, const char* value,
                              const auto& read) -> std::string {
    const char* argv[] = {"prog", flag, value};
    EXPECT_TRUE(cli.parse(3, argv));
    try {
      read();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  const auto as_u32 = [&cli] { return cli.get_unsigned<std::uint32_t>("n"); };
  for (const char* bad : {"12abc", "-5", "+2", "2.5", "5000000000", ""}) {
    const std::string why = refusal("--n", bad, as_u32);
    EXPECT_NE(why.find(std::string("--n '") + bad + "'"), std::string::npos)
        << why;
  }
  EXPECT_EQ(refusal("--n", "4294967295", as_u32), "accepted");
  const auto as_double = [&cli] { return cli.get_double("x"); };
  for (const char* bad : {"0.5x", "nan", "inf", "-inf", "x"}) {
    EXPECT_NE(refusal("--x", bad, as_double).find("--x '"), std::string::npos)
        << bad;
  }
  EXPECT_EQ(refusal("--x", "-2.5e-3", as_double), "accepted");
  const auto as_bool = [&cli] { return cli.get_bool("b"); };
  EXPECT_NE(refusal("--b", "maybe", as_bool).find("--b 'maybe'"),
            std::string::npos);
  EXPECT_EQ(refusal("--b", "off", as_bool), "accepted");
  EXPECT_FALSE(cli.get_bool("b"));
  const auto as_list = [&cli] {
    return cli.get_unsigned_list<std::uint32_t>("list");
  };
  EXPECT_NE(refusal("--list", "4,-1", as_list).find("--list '-1'"),
            std::string::npos);
  const auto as_doubles = [&cli] { return cli.get_double_list("list"); };
  EXPECT_NE(refusal("--list", "0.5,1e400", as_doubles).find("--list '1e400'"),
            std::string::npos);
  EXPECT_EQ(refusal("--list", "4,16", as_list), "accepted");
  EXPECT_EQ(cli.get_unsigned_list<std::uint32_t>("list"),
            (std::vector<std::uint32_t>{4, 16}));
}

// A choice flag takes only its listed spellings, whole and case-sensitive.
TEST(CliTest, ChoiceOutsideItsSetIsRefused) {
  Cli cli("test");
  cli.add_flag("scale", "default", "default | paper");
  const char* defaults[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, defaults));
  EXPECT_EQ(cli.get_choice("scale", {"default", "paper"}), "default");
  for (const char* bad : {"bogus", "Paper", "pape", "paper ", ""}) {
    const char* argv[] = {"prog", "--scale", bad};
    ASSERT_TRUE(cli.parse(3, argv));
    try {
      cli.get_choice("scale", {"default", "paper"});
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), std::string("--scale '") + bad +
                                           "': expected one of default, paper");
    }
  }
  const char* paper[] = {"prog", "--scale", "paper"};
  ASSERT_TRUE(cli.parse(3, paper));
  EXPECT_EQ(cli.get_choice("scale", {"default", "paper"}), "paper");
}

}  // namespace
