// Differential suite for the delta-OTC evaluation engine (DESIGN.md §8):
// every baseline must produce byte-identical placements and bit-identical
// (hexfloat-equal) costs on the delta path as on the naive
// full-recomputation oracle, across instance families that cover trace and
// Dispersed demand up to the paper's own dimensions.  The delta paths'
// scans go to the shared pool wherever the instance is large enough, and
// each parallel site has a case here that checks it really forked.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/aestar.hpp"
#include "baselines/annealing.hpp"
#include "baselines/gra.hpp"
#include "baselines/greedy.hpp"
#include "baselines/local_search.hpp"
#include "baselines/selfish_caching.hpp"
#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"
#include "drp/delta_evaluator.hpp"
#include "obs/obs.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;
using namespace agtram::baselines;

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Byte-identical placements: same replicator set for every object, and
/// bit-identical total costs (reported as hexfloats on mismatch).
void expect_identical(const drp::ReplicaPlacement& naive,
                      const drp::ReplicaPlacement& delta) {
  const std::size_t n = naive.problem().object_count();
  ASSERT_EQ(n, delta.problem().object_count());
  for (drp::ObjectIndex k = 0; k < n; ++k) {
    const auto a = naive.replicators(k);
    const auto b = delta.replicators(k);
    ASSERT_EQ(std::vector<drp::ServerId>(a.begin(), a.end()),
              std::vector<drp::ServerId>(b.begin(), b.end()))
        << "replicator sets diverge at object " << k;
  }
  const double cost_naive = drp::CostModel::total_cost(naive);
  const double cost_delta = drp::CostModel::total_cost(delta);
  EXPECT_EQ(cost_naive, cost_delta)
      << "naive " << hexfloat(cost_naive) << " vs delta "
      << hexfloat(cost_delta);
  EXPECT_NO_THROW(delta.check_invariants());
}

std::uint64_t counter(std::string_view name) {
  return obs::Registry::instance().counter(name).value();
}

/// A single-worker pool runs every parallel_for inline by design, so the
/// fork checks below hold only where the shared pool has two or more
/// workers.
bool pool_can_fork() {
  return common::ThreadPool::shared().thread_count() > 1;
}

struct Family {
  std::string name;
  drp::Problem problem;
};

drp::Problem generated(std::uint32_t servers, std::uint32_t objects,
                       drp::DemandModel demand, std::uint64_t seed) {
  drp::InstanceSpec spec;
  spec.servers = servers;
  spec.objects = objects;
  spec.seed = seed;
  spec.demand = demand;
  spec.instance.capacity_fraction = 0.05;
  spec.instance.rw_ratio = 0.9;
  return drp::make_instance(spec);
}

/// The standard cross-family battery: small trace, mid trace, mid
/// dispersed, larger dispersed.  (Paper-scale dims get their own targeted
/// tests below; running every baseline's naive oracle there would dominate
/// suite time.)  On small-trace-16x40 every other pool call of a run stays
/// below its grain, so a fork there is the site under test.
const std::vector<Family>& families() {
  static const std::vector<Family> fams = [] {
    std::vector<Family> f;
    f.push_back({"small-trace-16x40", testutil::small_instance(7)});
    f.push_back(
        {"trace-64x640", generated(64, 640, drp::DemandModel::Trace, 21)});
    f.push_back({"dispersed-64x640",
                 generated(64, 640, drp::DemandModel::Dispersed, 22)});
    f.push_back({"dispersed-256x2560",
                 generated(256, 2560, drp::DemandModel::Dispersed, 23)});
    return f;
  }();
  return fams;
}

TEST(BaselinesDelta, GreedyMatchesNaive) {
  for (const Family& fam : families()) {
    SCOPED_TRACE(fam.name);
    GreedyConfig naive_cfg;
    naive_cfg.eval = EvalPath::Naive;
    const auto naive = run_greedy(fam.problem, naive_cfg);
    GreedyConfig delta_cfg;
    delta_cfg.eval = EvalPath::Delta;
    const std::uint64_t forks = counter("pool.forked_jobs");
    expect_identical(naive, run_greedy(fam.problem, delta_cfg));
    // The seed scan fans the object axis out in 16-object grains.
    if (pool_can_fork()) {
      EXPECT_GT(counter("pool.forked_jobs"), forks);
    }
  }
}

TEST(BaselinesDelta, GreedyFromStartAndCapMatchesNaive) {
  const drp::Problem& p = families()[2].problem;
  GreedyConfig naive_cfg;
  naive_cfg.eval = EvalPath::Naive;
  naive_cfg.max_replicas = 17;
  GreedyConfig delta_cfg = naive_cfg;
  delta_cfg.eval = EvalPath::Delta;
  // Start from a partially filled scheme so re-validation paths engage.
  SelfishCachingConfig seed_cfg;
  seed_cfg.seed = 5;
  const auto start = run_selfish_caching(p, seed_cfg).placement;
  expect_identical(run_greedy_from(p, start, naive_cfg),
                   run_greedy_from(p, start, delta_cfg));
}

TEST(BaselinesDelta, GraMatchesNaive) {
  for (const Family& fam : families()) {
    SCOPED_TRACE(fam.name);
    GraConfig naive_cfg;
    naive_cfg.eval = EvalPath::Naive;
    naive_cfg.population = 8;
    naive_cfg.generations = 6;
    naive_cfg.seed = 3;
    const auto naive = run_gra(fam.problem, naive_cfg);
    GraConfig delta_cfg = naive_cfg;
    delta_cfg.eval = EvalPath::Delta;
    const std::uint64_t forks = counter("pool.forked_jobs");
    expect_identical(naive, run_gra(fam.problem, delta_cfg));
    // Population scoring forks one genome per grain.
    if (pool_can_fork()) {
      EXPECT_GT(counter("pool.forked_jobs"), forks);
    }
  }
}

TEST(BaselinesDelta, AeStarMatchesNaive) {
  for (const Family& fam : families()) {
    SCOPED_TRACE(fam.name);
    AeStarConfig naive_cfg;
    naive_cfg.eval = EvalPath::Naive;
    naive_cfg.max_expansions = 40;
    const auto naive = run_aestar(fam.problem, naive_cfg);
    AeStarConfig delta_cfg = naive_cfg;
    delta_cfg.eval = EvalPath::Delta;
    const std::uint64_t forks = counter("pool.forked_jobs");
    const std::uint64_t scored = counter("aestar.shortlist_scored");
    expect_identical(naive, run_aestar(fam.problem, delta_cfg));
    // The shortlist is scored in 512-object grains, so from N = 1024 on
    // (dispersed-256x2560 here) every expansion's scan forks.
    const std::size_t n = fam.problem.object_count();
    if (n >= 1024 && pool_can_fork()) {
      const std::uint64_t scans =
          (counter("aestar.shortlist_scored") - scored) / n;
      EXPECT_GE(scans, 2u);
      EXPECT_GE(counter("pool.forked_jobs") - forks, scans);
    }
  }
}

TEST(BaselinesDelta, SelfishMatchesNaive) {
  for (const Family& fam : families()) {
    SCOPED_TRACE(fam.name);
    SelfishCachingConfig naive_cfg;
    naive_cfg.eval = EvalPath::Naive;
    naive_cfg.seed = 9;
    const auto naive = run_selfish_caching(fam.problem, naive_cfg);
    SelfishCachingConfig delta_cfg = naive_cfg;
    delta_cfg.eval = EvalPath::Delta;
    const auto delta = run_selfish_caching(fam.problem, delta_cfg);
    EXPECT_EQ(naive.sweeps, delta.sweeps);
    EXPECT_EQ(naive.moves, delta.moves);
    expect_identical(naive.placement, delta.placement);
  }
}

TEST(BaselinesDelta, LocalSearchMatchesNaive) {
  for (const Family& fam : families()) {
    SCOPED_TRACE(fam.name);
    LocalSearchConfig naive_cfg;
    naive_cfg.eval = EvalPath::Naive;
    naive_cfg.seed = 4;
    naive_cfg.max_proposals = 4000;
    LocalSearchConfig delta_cfg = naive_cfg;
    delta_cfg.eval = EvalPath::Delta;
    expect_identical(run_local_search(fam.problem, naive_cfg),
                     run_local_search(fam.problem, delta_cfg));
  }
}

TEST(BaselinesDelta, AnnealingMatchesNaive) {
  for (const Family& fam : families()) {
    SCOPED_TRACE(fam.name);
    AnnealingConfig naive_cfg;
    naive_cfg.eval = EvalPath::Naive;
    naive_cfg.seed = 6;
    naive_cfg.proposals = 6000;
    AnnealingConfig delta_cfg = naive_cfg;
    delta_cfg.eval = EvalPath::Delta;
    expect_identical(run_annealing(fam.problem, naive_cfg),
                     run_annealing(fam.problem, delta_cfg));
  }
}

// ------------------------------------------------------ paper-scale dims

/// Paper-scale (M = 3000, Dispersed) differential check for the two
/// baselines the bench gate tracks.  Configs are trimmed so the naive
/// oracle stays affordable inside the suite; the scans still cross the
/// parallel cutoffs (M >= 1024) and the CSR layout's arena paths.  GRA runs
/// at the paper's N = 25600.  Greedy's naive seed scan prices every
/// (object, server) pair, so it runs at N = 3200: an eighth of that scan,
/// and the same server-axis re-validation.
drp::Problem paper_scale_problem(std::uint32_t objects) {
  drp::InstanceSpec spec;
  spec.servers = 3000;
  spec.objects = objects;
  spec.seed = 42;
  spec.topology = net::TopologyKind::PowerLaw;
  spec.demand = drp::DemandModel::Dispersed;
  spec.readers_per_object = 8.0;
  spec.instance.capacity_fraction = 0.01;
  spec.instance.rw_ratio = 0.9;
  return drp::make_instance(spec);
}

TEST(PaperScaleDelta, GreedyMatchesNaive) {
  const drp::Problem p = paper_scale_problem(3200);
  GreedyConfig naive_cfg;
  naive_cfg.eval = EvalPath::Naive;
  naive_cfg.max_replicas = 64;
  const auto naive = run_greedy(p, naive_cfg);
  GreedyConfig delta_cfg = naive_cfg;
  delta_cfg.eval = EvalPath::Delta;
  const std::uint64_t scans = counter("delta_eval.scans_parallel");
  expect_identical(naive, run_greedy(p, delta_cfg));
  // M = 3000 clears kParallelMinServers: re-validation takes the
  // server-axis branch (BestAddMatchesNaiveArgmaxUnderMask checks that this
  // branch forks).
  EXPECT_GT(counter("delta_eval.scans_parallel"), scans);
}

TEST(PaperScaleDelta, GraMatchesNaive) {
  const drp::Problem p = paper_scale_problem(25600);
  GraConfig naive_cfg;
  naive_cfg.eval = EvalPath::Naive;
  naive_cfg.population = 6;
  naive_cfg.generations = 3;
  naive_cfg.seed = 8;
  const auto naive = run_gra(p, naive_cfg);
  GraConfig delta_cfg = naive_cfg;
  delta_cfg.eval = EvalPath::Delta;
  expect_identical(naive, run_gra(p, delta_cfg));
}

// ------------------------------------------------- delta-evaluator fuzz

/// Random add/drop/swap walk on a roomy-capacity instance, asserting after
/// every mutation that the evaluator's caches and hypothetical deltas are
/// bitwise equal to fresh full recomputations.  Capacities are inflated so
/// replicator sets grow past kInlineReplicators (8) and cross the
/// inline->arena boundary mid-walk.
TEST(DeltaEvaluatorFuzz, HypotheticalsMatchFreshRecomputation) {
  drp::Problem p = testutil::small_instance(31, 24, 20, /*capacity=*/3.0);
  common::Rng rng(1234);
  drp::DeltaEvaluator eval{drp::ReplicaPlacement(p)};
  bool crossed_arena_boundary = false;

  for (int step = 0; step < 3000; ++step) {
    const auto k = static_cast<drp::ObjectIndex>(rng.below(p.object_count()));
    const auto i = static_cast<drp::ServerId>(rng.below(p.server_count()));
    switch (rng.below(3)) {
      case 0: {
        if (!eval.can_replicate(i, k)) break;
        const double predicted = eval.delta_of_add(i, k);
        const double before = eval.object_cost(k);
        eval.add_replica(i, k);
        const double fresh =
            drp::CostModel::object_cost(eval.placement(), k);
        ASSERT_EQ(eval.object_cost(k), fresh) << "add cache, step " << step;
        ASSERT_EQ(predicted, fresh - before) << "add delta, step " << step;
        break;
      }
      case 1: {
        if (!eval.placement().is_replicator(i, k) || i == p.primary[k]) break;
        const double predicted = eval.delta_of_drop(i, k);
        const double before = eval.object_cost(k);
        eval.remove_replica(i, k);
        const double fresh =
            drp::CostModel::object_cost(eval.placement(), k);
        ASSERT_EQ(eval.object_cost(k), fresh) << "drop cache, step " << step;
        ASSERT_EQ(predicted, fresh - before) << "drop delta, step " << step;
        break;
      }
      default: {
        const auto to = static_cast<drp::ServerId>(rng.below(p.server_count()));
        if (!eval.placement().is_replicator(i, k) || i == p.primary[k] ||
            i == to || eval.placement().is_replicator(to, k) ||
            !eval.can_replicate(to, k)) {
          break;
        }
        const double predicted = eval.delta_of_swap(i, to, k);
        const double before = eval.object_cost(k);
        eval.remove_replica(i, k);
        eval.add_replica(to, k);
        const double fresh =
            drp::CostModel::object_cost(eval.placement(), k);
        ASSERT_EQ(eval.object_cost(k), fresh) << "swap cache, step " << step;
        ASSERT_EQ(predicted, fresh - before) << "swap delta, step " << step;
        break;
      }
    }
    if (eval.placement().replicators(k).size() >
        drp::ReplicaPlacement::kInlineReplicators) {
      crossed_arena_boundary = true;
    }
    ASSERT_EQ(eval.total(), drp::CostModel::total_cost(eval.placement()))
        << "total, step " << step;
  }
  EXPECT_TRUE(crossed_arena_boundary)
      << "fuzz walk never spilled a replicator set to the arena; "
         "raise capacities or steps";
  EXPECT_NO_THROW(eval.placement().check_invariants());
}

/// The loop-swapped scan against the naive argmax, inline and on the pool.
/// The 1100-server instance clears kParallelMinServers, so its parallel
/// scans fork the server axis on a multi-worker pool: the sanitizer runs,
/// which skip PaperScaleDelta, see that fork here.
TEST(DeltaEvaluatorFuzz, BestAddMatchesNaiveArgmaxUnderMask) {
  drp::InstanceSpec wide;
  wide.servers = 1100;
  wide.objects = 40;
  wide.seed = 19;
  wide.topology = net::TopologyKind::PowerLaw;
  wide.demand = drp::DemandModel::Dispersed;
  std::vector<drp::Problem> problems;
  problems.push_back(testutil::small_instance(17, 32, 60));
  problems.push_back(drp::make_instance(wide));
  for (const drp::Problem& p : problems) {
    SCOPED_TRACE("M=" + std::to_string(p.server_count()));
    SelfishCachingConfig seed_cfg;
    seed_cfg.seed = 2;
    drp::DeltaEvaluator eval{run_selfish_caching(p, seed_cfg).placement};
    std::vector<bool> mask(p.server_count(), true);
    common::Rng rng(77);
    for (std::size_t i = 0; i < mask.size(); ++i) mask[i] = rng.chance(0.7);

    const bool wide_enough =
        p.server_count() >= drp::DeltaEvaluator::kParallelMinServers;
    const std::uint64_t scans = counter("delta_eval.scans_parallel");
    const std::uint64_t forks = counter("pool.forked_jobs");
    drp::DeltaEvaluator::ScanScratch scratch;
    for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
      double naive_benefit = 0.0;
      drp::ServerId naive_server = 0;
      for (drp::ServerId i = 0; i < p.server_count(); ++i) {
        if (!mask[i] || !eval.can_replicate(i, k)) continue;
        const double b =
            drp::CostModel::global_benefit(eval.placement(), i, k);
        if (b > naive_benefit) {
          naive_benefit = b;
          naive_server = i;
        }
      }
      for (const bool parallel : {false, true}) {
        const auto best =
            eval.best_add_for_object(k, &mask, scratch, parallel);
        ASSERT_EQ(best.benefit, naive_benefit)
            << "object " << k << " benefit " << hexfloat(best.benefit)
            << " vs " << hexfloat(naive_benefit);
        ASSERT_EQ(best.server, naive_server) << "object " << k;
      }
    }
    // scans_parallel counts the cutoff decision; forked_jobs shows the
    // server axis really went to the pool (nothing else here forks).
    EXPECT_EQ(counter("delta_eval.scans_parallel") > scans, wide_enough);
    if (pool_can_fork()) {
      EXPECT_EQ(counter("pool.forked_jobs") > forks, wide_enough);
    }
  }
}

}  // namespace
