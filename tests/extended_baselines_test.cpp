// Tests for the extended comparison set (selfish caching, local search,
// simulated annealing), the cooperative regional game, the economics
// report, and the pinned outputs of every engine built on a shared loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "baselines/aestar.hpp"
#include "baselines/annealing.hpp"
#include "baselines/auctions.hpp"
#include "baselines/glauber.hpp"
#include "baselines/gra.hpp"
#include "baselines/greedy.hpp"
#include "baselines/local_search.hpp"
#include "baselines/registry.hpp"
#include "baselines/selfish_caching.hpp"
#include "common/stats.hpp"
#include "core/agt_ram.hpp"
#include "core/audit.hpp"
#include "core/economics.hpp"
#include "core/regional.hpp"
#include "core/regional_tiled.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"
#include "srv/serving_engine.hpp"
#include "srv/workload.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;
using namespace agtram::baselines;

double cost(const drp::ReplicaPlacement& placement) {
  return drp::CostModel::total_cost(placement);
}

// ------------------------------------------------------- selfish caching

TEST(SelfishCaching, ReachesPureNashEquilibrium) {
  const drp::Problem p = testutil::small_instance(601, 24, 80);
  const auto result = run_selfish_caching(p);
  EXPECT_NO_THROW(result.placement.check_invariants());
  // Equilibrium: no server has a profitable unilateral replication left.
  for (drp::ServerId i = 0; i < p.server_count(); ++i) {
    for (const auto& access : p.access.server_objects(i)) {
      if (access.reads == 0) continue;
      if (!result.placement.can_replicate(i, access.object)) continue;
      EXPECT_LE(
          drp::CostModel::agent_benefit(result.placement, i, access.object),
          1e-9);
    }
  }
}

TEST(SelfishCaching, EquilibriumMatchesMechanismFixedPointQuality) {
  // The mechanism's allocation is itself a pure Nash equilibrium of the
  // same game; without capacity contention the two coincide in value.
  const drp::Problem p = testutil::small_instance(602, 24, 80, 0.1);
  const double nash = cost(run_selfish_caching(p).placement);
  const double mechanism = cost(core::run_agt_ram(p).placement);
  EXPECT_NEAR(nash, mechanism, 0.03 * mechanism);
}

TEST(SelfishCaching, DeterministicInSeedAndSweepCap) {
  const drp::Problem p = testutil::small_instance(603, 20, 60);
  SelfishCachingConfig cfg;
  cfg.seed = 5;
  EXPECT_DOUBLE_EQ(cost(run_selfish_caching(p, cfg).placement),
                   cost(run_selfish_caching(p, cfg).placement));
}

// ---------------------------------------------------------- local search

TEST(LocalSearch, ImprovesOnItsSelfishSeed) {
  const drp::Problem p = testutil::small_instance(604, 20, 60);
  LocalSearchConfig cfg;
  cfg.seed = 7;
  SelfishCachingConfig seed_cfg;
  seed_cfg.seed = cfg.seed ^ 0xdecaf;
  const double seed_cost = cost(run_selfish_caching(p, seed_cfg).placement);
  const double searched = cost(run_local_search(p, cfg));
  EXPECT_LE(searched, seed_cost + 1e-9);
}

TEST(LocalSearch, FeasibleAndDeterministic) {
  const drp::Problem p = testutil::small_instance(605, 20, 60);
  LocalSearchConfig cfg;
  cfg.seed = 8;
  cfg.max_proposals = 5000;
  const auto a = run_local_search(p, cfg);
  const auto b = run_local_search(p, cfg);
  EXPECT_NO_THROW(a.check_invariants());
  EXPECT_DOUBLE_EQ(cost(a), cost(b));
}

// ------------------------------------------------------------- annealing

TEST(Annealing, FeasibleAndNoWorseThanInitial) {
  const drp::Problem p = testutil::small_instance(606, 20, 60);
  AnnealingConfig cfg;
  cfg.seed = 9;
  cfg.proposals = 8000;
  const auto placement = run_annealing(p, cfg);
  EXPECT_NO_THROW(placement.check_invariants());
  EXPECT_LE(cost(placement), drp::CostModel::initial_cost(p) + 1e-9);
}

TEST(Annealing, MoreProposalsDoNotHurt) {
  const drp::Problem p = testutil::small_instance(607, 20, 60);
  AnnealingConfig small_cfg, large_cfg;
  small_cfg.seed = large_cfg.seed = 10;
  small_cfg.proposals = 500;
  large_cfg.proposals = 15000;
  // Not strictly monotone (different proposal streams), but the incumbent
  // with 30x the budget must not be meaningfully worse.
  EXPECT_LE(cost(run_annealing(p, large_cfg)),
            cost(run_annealing(p, small_cfg)) * 1.02);
}

// ------------------------------------------------------ extended registry

TEST(ExtendedRegistry, ContainsTenRunnableMethods) {
  const auto algorithms = extended_algorithms();
  ASSERT_EQ(algorithms.size(), 10u);
  EXPECT_EQ(algorithms[6].name, "Glauber");
  EXPECT_EQ(algorithms[7].name, "Selfish");
  EXPECT_EQ(algorithms[8].name, "LocalSearch");
  EXPECT_EQ(algorithms[9].name, "SA");
  const drp::Problem p = testutil::small_instance(608, 16, 50);
  const double initial = drp::CostModel::initial_cost(p);
  for (const auto& algorithm : algorithms) {
    SCOPED_TRACE(algorithm.name);
    const auto placement = algorithm.run(p, 3);
    EXPECT_NO_THROW(placement.check_invariants());
    EXPECT_LE(cost(placement), initial * 1.0001);
  }
  EXPECT_NO_THROW(find_algorithm("SA"));
}

// --------------------------------------------------- cooperative regions

TEST(CooperativeRegional, FeasibleAndImproves) {
  const drp::Problem p = testutil::small_instance(609, 24, 80);
  const auto result = core::run_regional_cooperative(p);
  EXPECT_NO_THROW(result.placement.check_invariants());
  EXPECT_LT(cost(result.placement), drp::CostModel::initial_cost(p));
  EXPECT_GT(result.replicas_placed(), 0u);
}

TEST(CooperativeRegional, NoChargesInsideCoalitions) {
  const drp::Problem p = testutil::small_instance(610, 24, 80);
  const auto result = core::run_regional_cooperative(p);
  for (const auto& region : result.regions) {
    EXPECT_DOUBLE_EQ(region.charges, 0.0);
  }
}

TEST(CooperativeRegional, BeatsOrMatchesNonCooperativeRegions) {
  // Pooling information within a region (hub placement, joint welfare)
  // weakly dominates each member acting on private benefit alone.
  const drp::Problem p = testutil::small_instance(611, 32, 120, 0.06);
  core::RegionalConfig cfg;
  cfg.regions = 4;
  const double cooperative =
      cost(core::run_regional_cooperative(p, cfg).placement);
  const double selfish = cost(core::run_regional(p, cfg).placement);
  EXPECT_LE(cooperative, selfish * 1.02);
}

TEST(CooperativeRegional, FailedRegionsExcluded) {
  const drp::Problem p = testutil::small_instance(612, 24, 80);
  core::RegionalConfig cfg;
  cfg.regions = 4;
  cfg.failed_regions = {2};
  const auto result = core::run_regional_cooperative(p, cfg);
  EXPECT_TRUE(result.regions[2].failed);
  EXPECT_EQ(result.regions[2].replicas_placed, 0u);
}

// ------------------------------------------------------------- economics

TEST(Economics, ReportIsInternallyConsistent) {
  const drp::Problem p = testutil::small_instance(613, 24, 80);
  const auto result = core::run_agt_ram(p);
  const auto econ = core::economics_report(result);
  EXPECT_EQ(econ.rounds, result.rounds.size());
  EXPECT_GT(econ.welfare, 0.0);
  EXPECT_GE(econ.charges, 0.0);
  EXPECT_LE(econ.charges, econ.welfare + 1e-9);  // second <= first, per round
  EXPECT_NEAR(econ.total_surplus, econ.welfare - econ.charges, 1e-6);
  EXPECT_GE(econ.frugality_ratio, 0.0);
  EXPECT_LE(econ.frugality_ratio, 1.0 + 1e-9);
  EXPECT_GE(econ.utility_gini, 0.0);
  EXPECT_LE(econ.utility_gini, 1.0);
  EXPECT_GE(econ.mean_dominance, 1.0);
  EXPECT_GT(econ.winning_agents, 0u);
  EXPECT_LE(econ.winning_agents, p.server_count());
}

TEST(Economics, NoPaymentRuleHasZeroCharges) {
  const drp::Problem p = testutil::small_instance(614, 20, 60);
  core::AgtRamConfig cfg;
  cfg.payment_rule = core::PaymentRule::None;
  const auto econ = core::economics_report(core::run_agt_ram(p, cfg));
  EXPECT_DOUBLE_EQ(econ.charges, 0.0);
  EXPECT_DOUBLE_EQ(econ.frugality_ratio, 0.0);
}

TEST(Economics, EmptyRunIsAllZeros) {
  const drp::Problem p = testutil::line3_problem();
  const core::MechanismResult result{drp::ReplicaPlacement(p), {}};
  const auto econ = core::economics_report(result);
  EXPECT_DOUBLE_EQ(econ.welfare, 0.0);
  EXPECT_DOUBLE_EQ(econ.utility_gini, 0.0);
  EXPECT_EQ(econ.winning_agents, 0u);
}


// ---------------------------------------------------------- pinned outputs

/// One engine's pinned outputs.  `cost` is the total OTC (the federated
/// shard sum for the tiled engine; the summed trial margins for the audit
/// rows), `replicas` the extra replicas placed (the trial count for the
/// audit rows); `epochs` and `charges` are recorded for the regional
/// engines (the tiled engine's epochs are its summed shard rounds) and for
/// the strategic audit (its total round violations and the ring's
/// revenue), and 0 elsewhere.
struct Pin {
  double cost = 0.0;
  std::size_t replicas = 0;
  std::size_t epochs = 0;
  double charges = 0.0;
};

struct PinCase {
  const char* name;
  Pin (*run)(int instance);
  Pin expected[2];
};

drp::Problem pin_instance(int instance) {
  return instance == 0 ? testutil::small_instance(31, 36, 180)
                       : testutil::small_instance(32, 44, 240, 0.02, 0.8);
}

drp::SparseInstance pin_sparse_instance(int instance) {
  drp::InstanceSpec spec;
  spec.servers = instance == 0 ? 80 : 100;
  spec.objects = instance == 0 ? 240 : 300;
  spec.seed = instance == 0 ? 33 : 34;
  spec.instance.capacity_fraction = 0.05;
  return drp::make_sparse_instance(spec);
}

Pin placement_pin(const drp::ReplicaPlacement& placement) {
  return Pin{cost(placement), placement.extra_replica_count(), 0, 0.0};
}

Pin greedy_pin(int instance, EvalPath eval) {
  const drp::Problem p = pin_instance(instance);
  GreedyConfig cfg;
  cfg.eval = eval;
  return placement_pin(run_greedy(p, cfg));
}

Pin greedy_capped_pin(int instance, EvalPath eval) {
  const drp::Problem p = pin_instance(instance);
  GreedyConfig cfg;
  cfg.eval = eval;
  cfg.max_replicas = 7;
  return placement_pin(run_greedy_from(p, drp::ReplicaPlacement(p), cfg));
}

Pin greedy_masked_pin(int instance, EvalPath eval) {
  const drp::Problem p = pin_instance(instance);
  std::vector<bool> even(p.server_count(), false);
  for (std::size_t i = 0; i < even.size(); i += 2) even[i] = true;
  GreedyConfig cfg;
  cfg.eval = eval;
  cfg.allowed_sites = &even;
  return placement_pin(
      run_greedy_from(p, core::run_agt_ram(p).placement, cfg));
}

Pin aestar_pin(int instance, EvalPath eval) {
  const drp::Problem p = pin_instance(instance);
  AeStarConfig cfg;
  cfg.eval = eval;
  return placement_pin(run_aestar(p, cfg));
}

Pin gra_pin(int instance, EvalPath eval) {
  const drp::Problem p = pin_instance(instance);
  GraConfig cfg;
  cfg.eval = eval;
  return placement_pin(run_gra(p, cfg));
}

Pin local_search_pin(int instance, EvalPath eval) {
  const drp::Problem p = pin_instance(instance);
  LocalSearchConfig cfg;
  cfg.eval = eval;
  return placement_pin(run_local_search(p, cfg));
}

Pin annealing_pin(int instance, EvalPath eval) {
  const drp::Problem p = pin_instance(instance);
  AnnealingConfig cfg;
  cfg.eval = eval;
  return placement_pin(run_annealing(p, cfg));
}

Pin regional_pin(const core::RegionalResult& result) {
  double charges = 0.0;
  for (const core::RegionOutcome& region : result.regions) {
    charges += region.charges;
  }
  return Pin{cost(result.placement), result.placement.extra_replica_count(),
             result.epochs, charges};
}

core::RegionalConfig four_regions() {
  core::RegionalConfig cfg;
  cfg.regions = 4;
  return cfg;
}

Pin tiled_pin(int instance, bool cooperative) {
  const drp::SparseInstance inst = pin_sparse_instance(instance);
  core::TiledRegionalConfig cfg;
  cfg.regions = 4;
  cfg.cooperative = cooperative;
  const core::TiledRegionalResult result = core::run_regional_tiled(inst, cfg);
  Pin pin{result.final_cost, result.replicas_placed(), 0, 0.0};
  for (const core::TiledShardOutcome& shard : result.shards) {
    pin.epochs += shard.rounds;
    pin.charges += shard.charges;
  }
  return pin;
}

Pin audit_pin(int instance, core::PaymentRule rule) {
  const drp::Problem p = pin_instance(instance);
  const std::vector<core::OneShotTrial> trials =
      core::audit_one_shot_truthfulness(p, rule, {0.5, 0.9, 1.1, 2.0});
  Pin pin{0.0, trials.size(), 0, 0.0};
  for (const core::OneShotTrial& trial : trials) pin.cost += trial.margin();
  return pin;
}

// The factors cover every deviation kind a factor maps to: zero, deflate,
// truthful and inflate.
Pin full_game_audit_pin(int instance, core::PaymentRule rule) {
  const drp::Problem p = pin_instance(instance);
  const auto trials =
      core::audit_truthfulness(p, rule, /*agent=*/2, {0.0, 0.5, 1.0, 2.0});
  Pin pin{0.0, trials.size(), 0, 0.0};
  for (const auto& trial : trials) pin.cost += trial.margin();
  return pin;
}

// The trials and the ring's reversions: their count and summed full-game
// margins, the total round violations and the ring's revenue.
Pin strategic_audit_pin(int instance) {
  const core::StrategicAuditReport report =
      core::strategic_audit(pin_instance(instance));
  Pin pin{0.0, 0, report.total_round_violations,
          report.collusion.collusive_revenue};
  for (const auto* trials : {&report.trials, &report.collusion.reversion}) {
    for (const core::StrategicTrial& trial : *trials) {
      pin.cost += trial.margin();
      ++pin.replicas;
    }
  }
  return pin;
}

Pin glauber_pin(int instance, EvalPath eval) {
  const drp::Problem p = pin_instance(instance);
  GlauberConfig cfg;
  cfg.eval = eval;
  const GlauberResult result = run_glauber(p, cfg);
  return Pin{result.final_cost, result.placement.extra_replica_count(), 0,
             0.0};
}

Pin selfish_pin(int instance, EvalPath eval) {
  const drp::Problem p = pin_instance(instance);
  SelfishCachingConfig cfg;
  cfg.eval = eval;
  return placement_pin(run_selfish_caching(p, cfg).placement);
}

// Every engine whose loops are shared code, and the audits and baselines
// whose copies were merged, on two instances each, against values recorded
// before the merge: the pins hold the merged code to the outputs of the
// copies it replaced.
const PinCase kPinCases[] = {
    {"greedy/naive", [](int i) { return greedy_pin(i, EvalPath::Naive); },
     {{0x1.3145ep+19, 197, 0, 0x0p+0},
      {0x1.5c0afp+20, 130, 0, 0x0p+0}}},
    {"greedy/delta", [](int i) { return greedy_pin(i, EvalPath::Delta); },
     {{0x1.3145ep+19, 197, 0, 0x0p+0},
      {0x1.5c0afp+20, 130, 0, 0x0p+0}}},
    {"greedy_from/cap/naive",
     [](int i) { return greedy_capped_pin(i, EvalPath::Naive); },
     {{0x1.aab9ep+19, 7, 0, 0x0p+0},
      {0x1.947d3p+20, 7, 0, 0x0p+0}}},
    {"greedy_from/cap/delta",
     [](int i) { return greedy_capped_pin(i, EvalPath::Delta); },
     {{0x1.aab9ep+19, 7, 0, 0x0p+0},
      {0x1.947d3p+20, 7, 0, 0x0p+0}}},
    {"greedy_from/mask/naive",
     [](int i) { return greedy_masked_pin(i, EvalPath::Naive); },
     {{0x1.3a5fap+19, 176, 0, 0x0p+0},
      {0x1.61818p+20, 109, 0, 0x0p+0}}},
    {"greedy_from/mask/delta",
     [](int i) { return greedy_masked_pin(i, EvalPath::Delta); },
     {{0x1.3a5fap+19, 176, 0, 0x0p+0},
      {0x1.61818p+20, 109, 0, 0x0p+0}}},
    {"aestar/naive", [](int i) { return aestar_pin(i, EvalPath::Naive); },
     {{0x1.3c11ap+19, 158, 0, 0x0p+0},
      {0x1.6734p+20, 104, 0, 0x0p+0}}},
    {"aestar/delta", [](int i) { return aestar_pin(i, EvalPath::Delta); },
     {{0x1.3c11ap+19, 158, 0, 0x0p+0},
      {0x1.6734p+20, 104, 0, 0x0p+0}}},
    {"gra/naive", [](int i) { return gra_pin(i, EvalPath::Naive); },
     {{0x1.7339ap+19, 113, 0, 0x0p+0},
      {0x1.8c435p+20, 63, 0, 0x0p+0}}},
    {"gra/delta", [](int i) { return gra_pin(i, EvalPath::Delta); },
     {{0x1.7339ap+19, 113, 0, 0x0p+0},
      {0x1.8c435p+20, 63, 0, 0x0p+0}}},
    {"dutch",
     [](int i) {
       const drp::Problem problem = pin_instance(i);
       return placement_pin(run_dutch_auction(problem));
     },
     {{0x1.4adeap+19, 110, 0, 0x0p+0},
      {0x1.73c5fp+20, 64, 0, 0x0p+0}}},
    {"english",
     [](int i) {
       const drp::Problem problem = pin_instance(i);
       return placement_pin(run_english_auction(problem));
     },
     {{0x1.4adeap+19, 110, 0, 0x0p+0},
      {0x1.7408bp+20, 63, 0, 0x0p+0}}},
    {"local_search/naive",
     [](int i) { return local_search_pin(i, EvalPath::Naive); },
     {{0x1.37d66p+19, 223, 0, 0x0p+0},
      {0x1.6861cp+20, 134, 0, 0x0p+0}}},
    {"local_search/delta",
     [](int i) { return local_search_pin(i, EvalPath::Delta); },
     {{0x1.37d66p+19, 223, 0, 0x0p+0},
      {0x1.6861cp+20, 134, 0, 0x0p+0}}},
    {"annealing/naive",
     [](int i) { return annealing_pin(i, EvalPath::Naive); },
     {{0x1.34a34p+19, 223, 0, 0x0p+0},
      {0x1.63f92p+20, 137, 0, 0x0p+0}}},
    {"annealing/delta",
     [](int i) { return annealing_pin(i, EvalPath::Delta); },
     {{0x1.34a34p+19, 223, 0, 0x0p+0},
      {0x1.63f92p+20, 137, 0, 0x0p+0}}},
    {"regional/R4",
     [](int i) {
       const drp::Problem problem = pin_instance(i);
       return regional_pin(core::run_regional(problem, four_regions()));
     },
     {{0x1.4b8a2p+19, 113, 48, 0x1.08cbp+17},
      {0x1.73c5fp+20, 64, 36, 0x1.ccd5p+16}}},
    {"regional/R4/failed1",
     [](int i) {
       core::RegionalConfig cfg = four_regions();
       cfg.failed_regions = {1};
       const drp::Problem problem = pin_instance(i);
       return regional_pin(core::run_regional(problem, cfg));
     },
     {{0x1.584aap+19, 84, 50, 0x1.c12dp+16},
      {0x1.7c2abp+20, 47, 36, 0x1.9b4fp+16}}},
    {"regional_cooperative/R4",
     [](int i) {
       const drp::Problem problem = pin_instance(i);
       return regional_pin(
           core::run_regional_cooperative(problem, four_regions()));
     },
     {{0x1.35b32p+19, 194, 98, 0x0p+0},
      {0x1.5eb39p+20, 108, 66, 0x0p+0}}},
    {"tiled/R4/auction", [](int i) { return tiled_pin(i, false); },
     {{0x1.eaa6cp+20, 57, 57, 0x1.c0768p+17},
      {0x1.44785p+21, 104, 104, 0x1.7be84p+18}}},
    {"tiled/R4/cooperative", [](int i) { return tiled_pin(i, true); },
     {{0x1.daea9p+20, 105, 105, 0x0p+0},
      {0x1.3aeb08p+21, 153, 153, 0x0p+0}}},
    {"audit_one_shot/second_price",
     [](int i) { return audit_pin(i, core::PaymentRule::SecondPrice); },
     {{0x1.de2p+14, 84, 0, 0x0p+0},
      {0x1.d2ep+13, 100, 0, 0x0p+0}}},
    {"audit_one_shot/first_price",
     [](int i) { return audit_pin(i, core::PaymentRule::FirstPrice); },
     {{0x1.81f8p+15, 84, 0, 0x0p+0},
      {0x1.24a4p+15, 100, 0, 0x0p+0}}},
    {"audit_full_game/second_price",
     [](int i) { return full_game_audit_pin(i, core::PaymentRule::SecondPrice); },
     {{-0x1.7ep+7, 4, 0, 0x0p+0},
      {-0x1.ep+3, 4, 0, 0x0p+0}}},
    {"audit_full_game/first_price",
     [](int i) { return full_game_audit_pin(i, core::PaymentRule::FirstPrice); },
     {{-0x1.aap+7, 4, 0, 0x0p+0},
      {-0x1.bp+5, 4, 0, 0x0p+0}}},
    {"strategic_audit", [](int i) { return strategic_audit_pin(i); },
     {{0x1.5e784p+18, 26, 0, 0x1.cb75p+16},
      {0x1.387ep+17, 26, 0, 0x1.7c4cp+15}}},
    {"glauber/naive", [](int i) { return glauber_pin(i, EvalPath::Naive); },
     {{0x1.78fcp+19, 193, 0, 0x0p+0},
      {0x1.8496fp+20, 104, 0, 0x0p+0}}},
    {"glauber/delta", [](int i) { return glauber_pin(i, EvalPath::Delta); },
     {{0x1.78fcp+19, 193, 0, 0x0p+0},
      {0x1.8496fp+20, 104, 0, 0x0p+0}}},
    {"selfish/naive", [](int i) { return selfish_pin(i, EvalPath::Naive); },
     {{0x1.4b85ep+19, 117, 0, 0x0p+0},
      {0x1.749c7p+20, 65, 0, 0x0p+0}}},
    {"selfish/delta", [](int i) { return selfish_pin(i, EvalPath::Delta); },
     {{0x1.4b85ep+19, 117, 0, 0x0p+0},
      {0x1.749c7p+20, 65, 0, 0x0p+0}}},
};

TEST(OutputsPinned, EverySharedLoopOnTwoInstances) {
  for (const PinCase& c : kPinCases) {
    for (int instance = 0; instance < 2; ++instance) {
      const Pin got = c.run(instance);
      const Pin& want = c.expected[instance];
      EXPECT_EQ(got.cost, want.cost) << c.name << " #" << instance;
      EXPECT_EQ(got.replicas, want.replicas) << c.name << " #" << instance;
      EXPECT_EQ(got.epochs, want.epochs) << c.name << " #" << instance;
      EXPECT_EQ(got.charges, want.charges) << c.name << " #" << instance;
    }
  }
}

// Each tally a reader derives from the record it comes from, against values
// recorded while the tally was still kept beside that record: the economics
// report, the per-agent outcomes and total_payments() of a mechanism run on
// both pin instances, and an OnDrift serving run's read counts, read units,
// read-cost summary and every batch's observed window read cost.
TEST(OutputsPinned, TalliesDerivedFromTheirRecords) {
  struct RunPin {
    double welfare, charges, frugality_ratio, total_surplus, utility_gini;
    std::size_t winning_agents, rounds;
    double mean_dominance;
    double agent_charges, agent_values;  // summed in agent order
    std::uint64_t wins;
    double largest_utility, total_payments;
  };
  const RunPin want_runs[2] = {
      {0x1.b1268p+17, 0x1.41bbp+17, 0x1.7c4c275824359p-1, 0x1.bdaep+15,
       0x1.e7ada827b7b58p-1, 20, 110, 0x1.19f4c2e215be4p+0, 0x1.41bbp+17,
       0x1.b1268p+17, 110, 0x1.81d6p+15, 0x1.41bbp+17},
      {0x1.79ap+17, 0x1.37dbp+17, 0x1.a6d3ae4f7c7bcp-1, 0x1.0714p+15,
       0x1.df99de87cf71ep-1, 20, 63, 0x1.2c7df75f128a1p+0, 0x1.37dbp+17,
       0x1.79ap+17, 63, 0x1.0fd4p+14, 0x1.37dbp+17},
  };
  for (int instance = 0; instance < 2; ++instance) {
    const drp::Problem problem = pin_instance(instance);
    const core::MechanismResult result = core::run_agt_ram(problem);
    const core::EconomicsReport econ = core::economics_report(result);
    RunPin got{.welfare = econ.welfare,
               .charges = econ.charges,
               .frugality_ratio = econ.frugality_ratio,
               .total_surplus = econ.total_surplus,
               .utility_gini = econ.utility_gini,
               .winning_agents = econ.winning_agents,
               .rounds = econ.rounds,
               .mean_dominance = econ.mean_dominance,
               .agent_charges = 0.0,
               .agent_values = 0.0,
               .wins = 0,
               .largest_utility = 0.0,
               .total_payments = result.total_payments()};
    for (const core::AgentOutcome& agent : core::agent_outcomes(result)) {
      got.agent_charges += agent.payments;
      got.agent_values += agent.true_value;
      got.wins += agent.objects_won;
      got.largest_utility = std::max(got.largest_utility, agent.utility());
    }
    const RunPin& want = want_runs[instance];
    SCOPED_TRACE("instance " + std::to_string(instance));
    EXPECT_EQ(got.welfare, want.welfare);
    EXPECT_EQ(got.charges, want.charges);
    EXPECT_EQ(got.frugality_ratio, want.frugality_ratio);
    EXPECT_EQ(got.total_surplus, want.total_surplus);
    EXPECT_EQ(got.utility_gini, want.utility_gini);
    EXPECT_EQ(got.winning_agents, want.winning_agents);
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.mean_dominance, want.mean_dominance);
    EXPECT_EQ(got.agent_charges, want.agent_charges);
    EXPECT_EQ(got.agent_values, want.agent_values);
    EXPECT_EQ(got.wins, want.wins);
    EXPECT_EQ(got.largest_utility, want.largest_utility);
    EXPECT_EQ(got.total_payments, want.total_payments);
  }

  // A few hundred batches under drift, with re-convergence and eviction;
  // the shard count is fixed so the run does not depend on the pool size.
  drp::InstanceSpec spec;
  spec.servers = 24;
  spec.objects = 96;
  spec.seed = 19;
  spec.demand = drp::DemandModel::Dispersed;
  spec.readers_per_object = 5.0;
  spec.instance.capacity_fraction = 0.05;
  spec.instance.rw_ratio = 0.9;
  srv::ServingConfig config;
  config.policy = srv::ReconvergePolicy::OnDrift;
  config.eviction_limit = 8;
  config.min_window_requests = 512;
  config.shards = 3;
  srv::ServingEngine engine(drp::make_instance(spec), config);
  srv::WorkloadConfig wconfig;
  wconfig.requests_per_batch = 256;
  wconfig.drift_interval = 4;
  wconfig.drift_fraction = 0.5;
  srv::SyntheticWorkload workload(engine.problem(), wconfig);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::vector<srv::Request> batch;
  for (int b = 0; b < 300; ++b) {
    workload.next_batch(batch);
    engine.run_batch(batch);
    std::uint64_t bits = 0;
    const double observed = engine.last_drift().observed_read_cost;
    std::memcpy(&bits, &observed, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (bits >> (8 * byte)) & 0xff;
      digest *= 0x100000001b3ULL;
    }
  }
  const srv::ServingStats& stats = engine.stats();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> costs;
  for (std::size_t d = 0; d < stats.read_cost_histogram.size(); ++d) {
    costs.emplace_back(d, stats.read_cost_histogram[d]);
  }
  const common::LatencySummary summary =
      common::summarize_read_costs(std::move(costs));
  EXPECT_EQ(stats.reads, 554114u);
  EXPECT_EQ(stats.local_reads, 368523u);
  EXPECT_EQ(stats.requests, 614867u);
  EXPECT_EQ(stats.read_units, 0x1.45a2ep+21);
  EXPECT_EQ(stats.reconverges, 11u);
  EXPECT_EQ(stats.replicas_evicted, 88u);
  EXPECT_EQ(summary.mean, 0x1.0b243d77cfdefp+0);
  EXPECT_EQ(summary.p50, 0x0p+0);
  EXPECT_EQ(summary.p90, 0x1p+2);
  EXPECT_EQ(summary.p99, 0x1.8p+2);
  EXPECT_EQ(summary.worst, 0x1.2p+3);
  EXPECT_EQ(summary.local_fraction, 0x1.5483ad530b562p-1);
  EXPECT_EQ(digest, 0x4620331e1b6fed59ULL);
}

}  // namespace
