// Tests for the five comparison baselines and the brute-force oracle.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/aestar.hpp"
#include "baselines/auctions.hpp"
#include "baselines/brute_force.hpp"
#include "baselines/gra.hpp"
#include "baselines/greedy.hpp"
#include "baselines/registry.hpp"
#include "core/agt_ram.hpp"
#include "drp/cost_model.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;
using namespace agtram::baselines;

double cost(const drp::ReplicaPlacement& placement) {
  return drp::CostModel::total_cost(placement);
}

// ----------------------------------------------------------- brute force

TEST(BruteForce, FindsLine3Optimum) {
  const drp::Problem p = testutil::line3_problem();
  const BruteForceResult best = run_brute_force(p);
  // 4 free cells -> 16 schemes, all feasible under capacity 10.
  EXPECT_EQ(best.schemes_evaluated, 16u);
  EXPECT_NO_THROW(best.placement.check_invariants());
  // Optimal scheme: replicate O0 at S1 and S2, O1 at S0.
  // Costs: O0 -> S1 rep (2) + S2 rep: reads 0, broadcast (1-0)*2*3 = 6 ->
  // wait, S2 replicating O0 costs broadcast 6 and saves reads 16: net good.
  EXPECT_TRUE(best.placement.is_replicator(1, 0));
  EXPECT_TRUE(best.placement.is_replicator(2, 0));
  EXPECT_TRUE(best.placement.is_replicator(0, 1));
  EXPECT_LE(best.cost, 124.0);
}

TEST(BruteForce, RefusesLargeInstances) {
  const drp::Problem p = testutil::small_instance(90);
  EXPECT_THROW(run_brute_force(p), std::invalid_argument);
}

TEST(BruteForce, LowerBoundsEveryHeuristic) {
  const drp::Problem p = testutil::line3_tight_problem();
  const double optimal = run_brute_force(p).cost;
  for (const auto& algorithm : all_algorithms()) {
    SCOPED_TRACE(algorithm.name);
    EXPECT_GE(cost(algorithm.run(p, 4)), optimal - 1e-9);
  }
}

TEST(BruteForce, GreedyAndAgtRamAreOptimalOnLine3) {
  // line3 is submodular-friendly: the greedy choices coincide with the
  // optimum, a useful anchor for both implementations.
  const drp::Problem p = testutil::line3_problem();
  const double optimal = run_brute_force(p).cost;
  EXPECT_DOUBLE_EQ(cost(run_greedy(p)), optimal);
  EXPECT_DOUBLE_EQ(cost(core::run_agt_ram(p).placement), optimal);
}

// --------------------------------------------------------------- greedy

TEST(Greedy, NeverWorseThanInitial) {
  const drp::Problem p = testutil::small_instance(91);
  const auto placement = run_greedy(p);
  EXPECT_NO_THROW(placement.check_invariants());
  EXPECT_LE(cost(placement), drp::CostModel::initial_cost(p));
}

TEST(Greedy, MaxReplicasCapRespected) {
  const drp::Problem p = testutil::small_instance(92);
  GreedyConfig cfg;
  cfg.max_replicas = 3;
  const auto placement = run_greedy(p, cfg);
  EXPECT_LE(placement.extra_replica_count(), 3u);
}

TEST(Greedy, IsDeterministic) {
  const drp::Problem p = testutil::small_instance(93);
  const auto a = run_greedy(p);
  const auto b = run_greedy(p);
  EXPECT_DOUBLE_EQ(cost(a), cost(b));
  EXPECT_EQ(a.extra_replica_count(), b.extra_replica_count());
}

TEST(Greedy, FromPrimariesEqualsPlainRun) {
  const drp::Problem p = testutil::small_instance(106);
  const double plain = cost(run_greedy(p));
  const double from =
      cost(run_greedy_from(p, drp::ReplicaPlacement(p), GreedyConfig{}));
  EXPECT_DOUBLE_EQ(plain, from);
}

TEST(Greedy, SiteMaskIsRespected) {
  const drp::Problem p = testutil::small_instance(107, 20, 60);
  std::vector<bool> allowed(p.server_count(), false);
  for (drp::ServerId i = 0; i < p.server_count(); i += 2) allowed[i] = true;
  GreedyConfig cfg;
  cfg.allowed_sites = &allowed;
  const auto placement = run_greedy(p, cfg);
  for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    for (const drp::ServerId i : placement.replicators(k)) {
      if (i == p.primary[k]) continue;
      EXPECT_TRUE(allowed[i]) << "replica on masked server " << i;
    }
  }
}

TEST(Greedy, SiteMaskOfTheWrongSizeIsRefused) {
  // A mask shorter than M would be read past its end on both paths.
  const drp::Problem p = testutil::small_instance(107, 20, 60);
  const std::vector<bool> short_mask(p.server_count() - 5, true);
  for (const EvalPath eval : {EvalPath::Naive, EvalPath::Delta}) {
    GreedyConfig cfg;
    cfg.eval = eval;
    cfg.allowed_sites = &short_mask;
    try {
      run_greedy(p, cfg);
      ADD_FAILURE() << "a 15-entry mask was accepted for 20 servers";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("15"), std::string::npos) << what;
      EXPECT_NE(what.find("20"), std::string::npos) << what;
    }
  }
}

TEST(Greedy, MaskedRunIsNoBetterThanUnmasked) {
  const drp::Problem p = testutil::small_instance(108, 20, 60);
  std::vector<bool> allowed(p.server_count(), false);
  for (drp::ServerId i = 0; i < p.server_count() / 2; ++i) allowed[i] = true;
  GreedyConfig cfg;
  cfg.allowed_sites = &allowed;
  EXPECT_GE(cost(run_greedy(p, cfg)), cost(run_greedy(p)) - 1e-9);
}

TEST(Greedy, RepairContinuationOnlyImproves) {
  const drp::Problem p = testutil::small_instance(109, 20, 60);
  // Start from a mechanism placement and let greedy polish it globally.
  auto start = core::run_agt_ram(p).placement;
  const double before = cost(start);
  const auto repaired = run_greedy_from(p, std::move(start), GreedyConfig{});
  EXPECT_LE(cost(repaired), before + 1e-9);
}

TEST(Greedy, EveryStepHadPositiveGlobalBenefit) {
  // Greedy must never place a replica that increases the global cost.
  const drp::Problem p = testutil::small_instance(94);
  const auto placement = run_greedy(p);
  EXPECT_LT(cost(placement), drp::CostModel::initial_cost(p));
}

// ------------------------------------------------------------------ GRA

TEST(Gra, FeasibleAndNoWorseThanInitial) {
  const drp::Problem p = testutil::small_instance(95);
  GraConfig cfg;
  cfg.generations = 10;
  cfg.seed = 5;
  const auto placement = run_gra(p, cfg);
  EXPECT_NO_THROW(placement.check_invariants());
  // The primaries-only seed genome guarantees no regression.
  EXPECT_LE(cost(placement), drp::CostModel::initial_cost(p) + 1e-9);
}

TEST(Gra, DeterministicInSeed) {
  const drp::Problem p = testutil::small_instance(96);
  GraConfig cfg;
  cfg.generations = 6;
  cfg.seed = 11;
  EXPECT_DOUBLE_EQ(cost(run_gra(p, cfg)), cost(run_gra(p, cfg)));
}

TEST(Gra, MoreGenerationsDoNotHurt) {
  const drp::Problem p = testutil::small_instance(97);
  GraConfig short_cfg, long_cfg;
  short_cfg.generations = 2;
  short_cfg.seed = 7;
  long_cfg.generations = 25;
  long_cfg.seed = 7;
  // Elitism makes the best-ever fitness monotone in generations.
  EXPECT_LE(cost(run_gra(p, long_cfg)), cost(run_gra(p, short_cfg)) + 1e-9);
}

// -------------------------------------------------------------- Ae-Star

TEST(AeStar, FeasibleAndImproves) {
  const drp::Problem p = testutil::small_instance(98);
  const auto placement = run_aestar(p);
  EXPECT_NO_THROW(placement.check_invariants());
  EXPECT_LT(cost(placement), drp::CostModel::initial_cost(p));
}

TEST(AeStar, TerminatesUnderTinyBudget) {
  const drp::Problem p = testutil::small_instance(99);
  AeStarConfig cfg;
  cfg.max_expansions = 2;
  const auto placement = run_aestar(p, cfg);
  EXPECT_NO_THROW(placement.check_invariants());
  EXPECT_LE(cost(placement), drp::CostModel::initial_cost(p));
}

TEST(AeStar, DeterministicRuns) {
  const drp::Problem p = testutil::small_instance(100);
  EXPECT_DOUBLE_EQ(cost(run_aestar(p)), cost(run_aestar(p)));
}

// ------------------------------------------------------------- auctions

TEST(Auctions, EnglishFeasibleAndImproves) {
  const drp::Problem p = testutil::small_instance(102);
  const auto placement = run_english_auction(p);
  EXPECT_NO_THROW(placement.check_invariants());
  EXPECT_LT(cost(placement), drp::CostModel::initial_cost(p));
}

TEST(Auctions, DutchFeasibleAndImproves) {
  const drp::Problem p = testutil::small_instance(103);
  const auto placement = run_dutch_auction(p);
  EXPECT_NO_THROW(placement.check_invariants());
  EXPECT_LT(cost(placement), drp::CostModel::initial_cost(p));
}

TEST(Auctions, DeterministicInSeed) {
  const drp::Problem p = testutil::small_instance(104);
  EnglishAuctionConfig ea;
  ea.seed = 9;
  EXPECT_DOUBLE_EQ(cost(run_english_auction(p, ea)),
                   cost(run_english_auction(p, ea)));
  DutchAuctionConfig da;
  da.seed = 9;
  EXPECT_DOUBLE_EQ(cost(run_dutch_auction(p, da)),
                   cost(run_dutch_auction(p, da)));
}

TEST(Auctions, QualityInTheAgtRamNeighbourhood) {
  // Both clocks converge towards the same pure-strategy fixed point as the
  // sealed-bid mechanism; they may lose a little to quantisation/shading
  // but never an order of magnitude.
  const drp::Problem p = testutil::small_instance(105, 24, 80, 0.03);
  const double agt = cost(core::run_agt_ram(p).placement);
  EXPECT_LE(cost(run_english_auction(p)), agt * 1.25);
  EXPECT_LE(cost(run_dutch_auction(p)), agt * 1.25);
}

// ------------------------------------------------------------- registry

TEST(Registry, ContainsAllSixMethods) {
  const auto algorithms = all_algorithms();
  ASSERT_EQ(algorithms.size(), 6u);
  EXPECT_EQ(algorithms[0].name, "Greedy");
  EXPECT_EQ(algorithms[3].name, "AGT-RAM");
}

TEST(Registry, LookupByName) {
  EXPECT_NO_THROW(find_algorithm("GRA"));
  EXPECT_NO_THROW(find_algorithm("EA"));
  EXPECT_THROW(find_algorithm("Simulated-Annealing"), std::invalid_argument);
}

TEST(Registry, EveryEntryRunsOnLine3) {
  const drp::Problem p = testutil::line3_problem();
  for (const auto& algorithm : all_algorithms()) {
    SCOPED_TRACE(algorithm.name);
    const auto placement = algorithm.run(p, 1);
    EXPECT_NO_THROW(placement.check_invariants());
    EXPECT_LE(cost(placement), 124.0);
  }
}

}  // namespace
