// Tests for the core mechanism: agents, AGT-RAM rounds, payments, and the
// axiom audits (truthfulness, utilitarianism).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/agent.hpp"
#include "core/agt_ram.hpp"
#include "core/audit.hpp"
#include "core/payments.hpp"
#include "drp/cost_model.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;
using namespace agtram::core;

// -------------------------------------------------------------- agents

TEST(AgentTest, CandidateListExcludesOwnPrimariesAndPureWriters) {
  const drp::Problem p = testutil::line3_problem();
  // S1 reads O0 (candidate) and only writes O1 (excluded): one candidate.
  Agent s1(p, 1);
  EXPECT_EQ(s1.remaining_candidates(), 1u);
  // S0 is O0's primary and reads O1: one candidate.
  Agent s0(p, 0);
  EXPECT_EQ(s0.remaining_candidates(), 1u);
  // S2 is O1's primary and reads O0: one candidate.
  Agent s2(p, 2);
  EXPECT_EQ(s2.remaining_candidates(), 1u);
}

TEST(AgentTest, ReportMatchesCostModelValuation) {
  const drp::Problem p = testutil::line3_problem();
  const drp::ReplicaPlacement placement(p);
  Agent s2(p, 2);
  const Report report = s2.make_report(placement, nullptr);
  ASSERT_TRUE(report.has_candidate);
  EXPECT_EQ(report.object, 0u);
  EXPECT_DOUBLE_EQ(report.true_value, 18.0);
  EXPECT_DOUBLE_EQ(report.claimed_value, 18.0);
}

TEST(AgentTest, StrategyDistortsClaimOnly) {
  const drp::Problem p = testutil::line3_problem();
  const drp::ReplicaPlacement placement(p);
  Agent s2(p, 2);
  const Report report =
      s2.make_report(placement, [](drp::ServerId, double v) { return 2 * v; });
  ASSERT_TRUE(report.has_candidate);
  EXPECT_DOUBLE_EQ(report.true_value, 18.0);
  EXPECT_DOUBLE_EQ(report.claimed_value, 36.0);
}

TEST(AgentTest, RetiresWhenCandidatesDrainAway) {
  const drp::Problem p = testutil::line3_problem();
  drp::ReplicaPlacement placement(p);
  Agent s2(p, 2);
  placement.add_replica(2, 0);  // someone placed S2's only candidate on it
  const Report report = s2.make_report(placement, nullptr);
  EXPECT_FALSE(report.has_candidate);
  EXPECT_TRUE(s2.retired());
}

TEST(AgentTest, ReportValueNeverIncreasesAcrossRounds) {
  const drp::Problem p = testutil::small_instance(55);
  drp::ReplicaPlacement placement(p);
  std::vector<Agent> agents;
  for (drp::ServerId i = 0; i < p.server_count(); ++i) agents.emplace_back(p, i);
  std::vector<double> last(p.server_count(),
                           std::numeric_limits<double>::infinity());
  common::Rng rng(5);
  for (int round = 0; round < 40; ++round) {
    for (auto& agent : agents) {
      const Report r = agent.make_report(placement, nullptr);
      if (!r.has_candidate) continue;
      EXPECT_LE(r.true_value, last[agent.id()] * (1 + 1e-9));
      last[agent.id()] = r.true_value;
    }
    // Mutate the placement adversarially and retry.
    const auto i = static_cast<drp::ServerId>(rng.below(p.server_count()));
    const auto k = static_cast<drp::ObjectIndex>(rng.below(p.object_count()));
    if (placement.can_replicate(i, k)) placement.add_replica(i, k);
  }
}

// ------------------------------------------------------------ payments

TEST(Payments, SecondPriceIgnoresWinnerReport) {
  const std::vector<double> reports{10.0, 7.0, 3.0};
  EXPECT_DOUBLE_EQ(compute_payment(PaymentRule::SecondPrice, reports, 0), 7.0);
  EXPECT_DOUBLE_EQ(compute_payment(PaymentRule::SecondPrice, reports, 1), 10.0);
}

TEST(Payments, SecondPriceSingleBidderPaysZero) {
  const std::vector<double> reports{10.0};
  EXPECT_DOUBLE_EQ(compute_payment(PaymentRule::SecondPrice, reports, 0), 0.0);
}

TEST(Payments, FirstPriceAndNone) {
  const std::vector<double> reports{10.0, 7.0};
  EXPECT_DOUBLE_EQ(compute_payment(PaymentRule::FirstPrice, reports, 0), 10.0);
  EXPECT_DOUBLE_EQ(compute_payment(PaymentRule::None, reports, 0), 0.0);
}

TEST(Payments, ParseRoundTrip) {
  for (auto rule : {PaymentRule::SecondPrice, PaymentRule::FirstPrice,
                    PaymentRule::None}) {
    EXPECT_EQ(parse_payment_rule(to_string(rule)), rule);
  }
  EXPECT_THROW(parse_payment_rule("barter"), std::invalid_argument);
}

// ------------------------------------------------------------- AGT-RAM

TEST(AgtRam, Line3AllocationIsValueOrdered) {
  const drp::Problem p = testutil::line3_problem();
  const MechanismResult result = run_agt_ram(p);
  // Initial valuations: S0/O1 = 45, S1/O0 = 20, S2/O0 = 18.  After S1 wins
  // O0, S2's NN for O0 improves to 2, decaying its valuation to
  // 4*2*2 - 1*2*3 = 10 — still positive, so S2 replicates last, unopposed.
  ASSERT_EQ(result.rounds.size(), 3u);
  EXPECT_EQ(result.rounds[0].winner, 0u);
  EXPECT_EQ(result.rounds[0].object, 1u);
  EXPECT_DOUBLE_EQ(result.rounds[0].true_value, 45.0);
  EXPECT_DOUBLE_EQ(result.rounds[0].payment, 20.0);  // second best
  EXPECT_EQ(result.rounds[1].winner, 1u);
  EXPECT_EQ(result.rounds[1].object, 0u);
  EXPECT_DOUBLE_EQ(result.rounds[1].payment, 18.0);  // S2's standing bid
  EXPECT_EQ(result.rounds[2].winner, 2u);
  EXPECT_DOUBLE_EQ(result.rounds[2].true_value, 10.0);
  EXPECT_DOUBLE_EQ(result.rounds[2].payment, 0.0);  // no competition left
}

TEST(AgtRam, PlacementSatisfiesInvariantsAndImproves) {
  const drp::Problem p = testutil::small_instance(61);
  const MechanismResult result = run_agt_ram(p);
  EXPECT_NO_THROW(result.placement.check_invariants());
  EXPECT_LE(drp::CostModel::total_cost(result.placement),
            drp::CostModel::initial_cost(p));
}

TEST(AgtRam, EveryRoundHasPositiveTrueValue) {
  const drp::Problem p = testutil::small_instance(62);
  const MechanismResult result = run_agt_ram(p);
  ASSERT_FALSE(result.rounds.empty());
  for (const RoundRecord& r : result.rounds) {
    EXPECT_GT(r.true_value, 0.0);
    EXPECT_GE(r.payment, 0.0);
    EXPECT_LE(r.payment, r.claimed_value + 1e-9);  // second <= first
  }
}

TEST(AgtRam, CostDecreasesMonotonicallyAcrossRounds) {
  // Replay the mechanism's allocation sequence and verify each step lowers
  // the winner's own cost (its true value is its local cost reduction).
  const drp::Problem p = testutil::small_instance(63);
  const MechanismResult result = run_agt_ram(p);
  drp::ReplicaPlacement replay(p);
  for (const RoundRecord& r : result.rounds) {
    const double value = drp::CostModel::agent_benefit(replay, r.winner, r.object);
    EXPECT_NEAR(value, r.true_value, 1e-6 * std::max(1.0, value));
    replay.add_replica(r.winner, r.object);
  }
}

TEST(AgtRam, MaxRoundsCapRespected) {
  const drp::Problem p = testutil::small_instance(65);
  AgtRamConfig cfg;
  cfg.max_rounds = 5;
  const MechanismResult result = run_agt_ram(p, cfg);
  EXPECT_LE(result.rounds.size(), 5u);
}

TEST(AgtRam, AgentOutcomesAreConsistent) {
  const drp::Problem p = testutil::small_instance(66);
  const MechanismResult result = run_agt_ram(p);
  std::vector<AgentOutcome> expected(p.server_count());
  for (const RoundRecord& r : result.rounds) {
    expected[r.winner].payments += r.payment;
    expected[r.winner].true_value += r.true_value;
    expected[r.winner].objects_won += 1;
  }
  const std::vector<AgentOutcome> outcomes = agent_outcomes(result);
  ASSERT_EQ(outcomes.size(), p.server_count());
  for (drp::ServerId i = 0; i < p.server_count(); ++i) {
    EXPECT_DOUBLE_EQ(outcomes[i].payments, expected[i].payments);
    EXPECT_DOUBLE_EQ(outcomes[i].true_value, expected[i].true_value);
    EXPECT_EQ(outcomes[i].objects_won, expected[i].objects_won);
    EXPECT_DOUBLE_EQ(outcomes[i].utility(),
                     expected[i].true_value - expected[i].payments);
  }
}

// ----------------------------------------------------------- warm start

TEST(Adaptive, WarmStartEqualsColdStartOnFreshProblem) {
  // Warm-starting from the primaries-only scheme must reproduce the plain
  // mechanism exactly.
  const drp::Problem p = testutil::small_instance(318, 24, 80);
  const MechanismResult cold = run_agt_ram(p);
  const MechanismResult warm =
      run_agt_ram_from(p, AgtRamConfig{}, drp::ReplicaPlacement(p));
  ASSERT_EQ(cold.rounds.size(), warm.rounds.size());
  for (std::size_t r = 0; r < cold.rounds.size(); ++r) {
    EXPECT_EQ(cold.rounds[r].winner, warm.rounds[r].winner);
    EXPECT_EQ(cold.rounds[r].object, warm.rounds[r].object);
  }
}

TEST(Adaptive, RestrictedParticipantsOnlyAllocateForThemselves) {
  const drp::Problem p = testutil::small_instance(319, 24, 80);
  const std::vector<drp::ServerId> participants{2, 5, 9};
  const MechanismResult result = run_agt_ram_from(
      p, AgtRamConfig{}, drp::ReplicaPlacement(p), &participants);
  for (const RoundRecord& round : result.rounds) {
    EXPECT_TRUE(round.winner == 2 || round.winner == 5 || round.winner == 9);
  }
  EXPECT_NO_THROW(result.placement.check_invariants());
}

// --------------------------------------------------------------- audits

TEST(Audit, RoundAuditorAcceptsSecondPriceRun) {
  const drp::Problem p = testutil::small_instance(71);
  RoundAuditor auditor(PaymentRule::SecondPrice);
  AgtRamConfig cfg;
  cfg.observer = &auditor;
  EXPECT_NO_THROW(run_agt_ram(p, cfg));
  EXPECT_GT(auditor.rounds_audited(), 0u);
}

TEST(Audit, RoundAuditorAcceptsFirstPriceRun) {
  const drp::Problem p = testutil::small_instance(72);
  RoundAuditor auditor(PaymentRule::FirstPrice);
  AgtRamConfig cfg;
  cfg.payment_rule = PaymentRule::FirstPrice;
  cfg.observer = &auditor;
  EXPECT_NO_THROW(run_agt_ram(p, cfg));
}

// A hand-fed round: agent 2's claim beats agent 1's, so an allocation to
// agent 1 breaks Axiom 4 even where the payment rule cannot tell.
TEST(Audit, RoundAuditorRefusesALowerClaimWinning) {
  RoundAuditor auditor(PaymentRule::None);
  auditor.on_round_begin(0);
  Report low;
  low.object = 0;
  low.claimed_value = low.true_value = 5.0;
  low.has_candidate = true;
  Report high = low;
  high.claimed_value = high.true_value = 9.0;
  auditor.on_report(1, low, /*fresh=*/true);
  auditor.on_report(2, high, /*fresh=*/true);
  EXPECT_THROW(auditor.on_allocation(1, 0, 0.0), std::logic_error);
}

// Axiom 4 consistency: the winners' true values summed over the rounds
// equal the true values summed over the agents.
TEST(Audit, UtilitarianDiscrepancyIsZero) {
  const drp::Problem p = testutil::small_instance(73);
  const MechanismResult result = run_agt_ram(p);
  double per_round = 0.0;
  for (const RoundRecord& r : result.rounds) per_round += r.true_value;
  double per_agent = 0.0;
  for (const AgentOutcome& a : agent_outcomes(result)) {
    per_agent += a.true_value;
  }
  EXPECT_EQ(per_round, per_agent);
}

class Truthfulness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Truthfulness, SecondPriceOneShotDominance) {
  // The exact property of Lemma 1 / Theorem 5 (both proved one-shot): with
  // all other reports fixed, no distortion of an agent's claim can improve
  // its round utility under the second-price rule.
  const drp::Problem p = testutil::small_instance(GetParam(), 14, 40, 0.08);
  const std::vector<double> distortions{0.25, 0.5, 0.8, 1.25, 2.0, 4.0};
  const auto trials =
      audit_one_shot_truthfulness(p, PaymentRule::SecondPrice, distortions);
  ASSERT_FALSE(trials.empty());
  for (const OneShotTrial& t : trials) {
    EXPECT_GE(t.margin(), -1e-9)
        << "agent " << t.agent << " gained by distorting x" << t.distortion;
    EXPECT_GE(t.truthful_utility, -1e-9);  // truth-telling never loses money
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Truthfulness, ::testing::Values(81, 82, 83));

TEST(Audit, FirstPriceIsManipulableByUnderProjection) {
  // Under first-price the winner is charged its own claim, so a truthful
  // winner nets zero and shading the claim (while still winning) pockets
  // the difference — the manipulation Axiom 5's second-price rule kills.
  const drp::Problem p = testutil::small_instance(84, 14, 40, 0.08);
  const auto trials =
      audit_one_shot_truthfulness(p, PaymentRule::FirstPrice, {0.5, 0.9});
  bool some_agent_gains = false;
  for (const OneShotTrial& t : trials) {
    if (t.deviant_utility > t.truthful_utility + 1e-9) some_agent_gains = true;
  }
  EXPECT_TRUE(some_agent_gains);
}

// ---------------------------------------------- incremental differential

// The incremental dirty-set path must be *indistinguishable* from the naive
// every-agent sweep in everything the mechanism publishes: same rounds in
// the same order, same payments, same final placement.  Only the work
// diagnostics (candidate_evaluations / reports_computed) may differ.
// This is the oracle the config flag exists for.

drp::Problem topology_instance(net::TopologyKind kind, std::uint64_t seed) {
  drp::InstanceSpec spec;
  spec.servers = 24;
  spec.objects = 80;
  spec.topology = kind;
  spec.seed = seed;
  spec.instance.capacity_fraction = 0.05;
  spec.instance.rw_ratio = 0.85;
  return drp::make_instance(spec);
}

drp::Problem dispersed_instance(std::uint64_t seed, std::uint32_t servers,
                                std::uint32_t objects) {
  drp::InstanceSpec spec;
  spec.servers = servers;
  spec.objects = objects;
  spec.seed = seed;
  spec.demand = drp::DemandModel::Dispersed;
  spec.readers_per_object = 6.0;
  spec.instance.capacity_fraction = 0.02;
  spec.instance.rw_ratio = 0.9;
  return drp::make_instance(spec);
}

void expect_identical_results(const MechanismResult& expected,
                              const MechanismResult& actual,
                              const drp::Problem& p, const char* label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(expected.rounds.size(), actual.rounds.size());
  for (std::size_t r = 0; r < expected.rounds.size(); ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    EXPECT_EQ(expected.rounds[r].winner, actual.rounds[r].winner);
    EXPECT_EQ(expected.rounds[r].object, actual.rounds[r].object);
    // Byte-identical, not approximately equal: both paths must evaluate the
    // same arithmetic on the same placement state.
    EXPECT_EQ(expected.rounds[r].claimed_value, actual.rounds[r].claimed_value);
    EXPECT_EQ(expected.rounds[r].true_value, actual.rounds[r].true_value);
    EXPECT_EQ(expected.rounds[r].payment, actual.rounds[r].payment);
  }
  const std::vector<AgentOutcome> want = agent_outcomes(expected);
  const std::vector<AgentOutcome> got = agent_outcomes(actual);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("agent " + std::to_string(i));
    EXPECT_EQ(want[i].payments, got[i].payments);
    EXPECT_EQ(want[i].true_value, got[i].true_value);
    EXPECT_EQ(want[i].objects_won, got[i].objects_won);
  }
  for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    const auto a = expected.placement.replicators(k);
    const auto b = actual.placement.replicators(k);
    ASSERT_EQ(a.size(), b.size()) << "object " << k;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
        << "object " << k;
  }
}

void run_differential(const drp::Problem& p, const char* label,
                      std::size_t max_rounds = 0) {
  AgtRamConfig naive_cfg;
  naive_cfg.report_mode = ReportMode::Naive;
  naive_cfg.max_rounds = max_rounds;
  const MechanismResult oracle = run_agt_ram(p, naive_cfg);

  AgtRamConfig cfg = naive_cfg;
  cfg.report_mode = ReportMode::Incremental;
  expect_identical_results(oracle, run_agt_ram(p, cfg), p,
                           (std::string(label) + "/incremental").c_str());
  // Auto must resolve to one of the two paths above and stay identical.
  cfg.report_mode = ReportMode::Auto;
  const MechanismResult auto_run = run_agt_ram(p, cfg);
  EXPECT_NE(auto_run.resolved_mode, ReportMode::Auto);
  expect_identical_results(oracle, auto_run, p,
                           (std::string(label) + "/auto").c_str());
}

TEST(Differential, HandBuiltLineInstances) {
  run_differential(testutil::line3_problem(), "line3");
  run_differential(testutil::line3_tight_problem(), "line3-tight");
}

TEST(Differential, FlatRandomTopology) {
  run_differential(topology_instance(net::TopologyKind::FlatRandom, 101),
                   "flat-101");
  run_differential(topology_instance(net::TopologyKind::FlatRandom, 102),
                   "flat-102");
}

TEST(Differential, WaxmanTopology) {
  run_differential(topology_instance(net::TopologyKind::Waxman, 103),
                   "waxman-103");
}

TEST(Differential, PowerLawTopology) {
  run_differential(topology_instance(net::TopologyKind::PowerLaw, 104),
                   "powerlaw-104");
}

TEST(Differential, GeneratedInstancesAcrossSeeds) {
  for (const std::uint64_t seed : {201u, 202u, 203u}) {
    run_differential(testutil::small_instance(seed, 20, 120, 0.03, 0.9),
                     ("small-" + std::to_string(seed)).c_str());
  }
}

TEST(Differential, DispersedDemandInstances) {
  // The regime the dirty-set path targets: |readers(k)| << M.  Parity must
  // hold here too, where the dirty set is a small fraction of LS.
  run_differential(dispersed_instance(301, 48, 240), "dispersed-301");
  run_differential(dispersed_instance(302, 48, 240), "dispersed-302");
}

TEST(Differential, PaperScaleFamilyRoundCapped) {
  // The paper-scale M=3000 dispersed family, round-capped so all three
  // paths (naive, incremental and Auto) stay test-sized.
  // Recipe: seed 42, power-law topology, dispersed demand with 8
  // readers/object, 1% capacity, R/W 0.9.
  drp::InstanceSpec spec;
  spec.servers = 3000;
  spec.objects = 25600;
  spec.seed = 42;
  spec.topology = net::TopologyKind::PowerLaw;
  spec.demand = drp::DemandModel::Dispersed;
  spec.readers_per_object = 8.0;
  spec.instance.capacity_fraction = 0.01;
  spec.instance.rw_ratio = 0.9;
  run_differential(drp::make_instance(spec), "paper-3000x25600",
                   /*max_rounds=*/120);
}

TEST(Differential, IncrementalDoesStrictlyLessWork) {
  // The point of the dirty-set path: far fewer reports recomputed.  On a
  // dispersed-demand instance the naive sweep recomputes every live agent
  // every round, while incremental touches only readers(k*) — well under
  // half the work.  (On trace-demand instances at bench scale the live set
  // collapses onto the hot objects' readers and the two coincide; see
  // DESIGN.md.)
  const drp::Problem p = dispersed_instance(205, 96, 600);
  AgtRamConfig cfg;
  cfg.report_mode = ReportMode::Naive;
  const MechanismResult naive = run_agt_ram(p, cfg);
  cfg.report_mode = ReportMode::Incremental;
  const MechanismResult incremental = run_agt_ram(p, cfg);
  ASSERT_GT(naive.rounds.size(), 4u) << "instance too easy to be meaningful";
  EXPECT_LT(incremental.reports_computed, naive.reports_computed / 2);
}

TEST(Differential, AutoModePicksTheDirtySetRegimeApart) {
  // Auto keys off the expected dirty-set size (size-biased mean reader
  // count) and the demand concentration (effective hot objects): the
  // dispersed family (readers(k) << M, volume spread wide) must resolve to
  // Incremental, while trace demand (a ~25-object effective hot set that
  // collapses the live set onto its readers) must resolve to Naive.
  const drp::Problem dispersed = dispersed_instance(206, 96, 600);
  EXPECT_EQ(resolve_report_mode(dispersed, dispersed.server_count(),
                                ReportMode::Auto),
            ReportMode::Incremental);
  EXPECT_EQ(run_agt_ram(dispersed).resolved_mode, ReportMode::Incremental);

  drp::InstanceSpec spec;
  spec.servers = 160;
  spec.objects = 1600;
  spec.seed = 42;
  spec.instance.capacity_fraction = 0.01;
  spec.instance.rw_ratio = 0.9;
  const drp::Problem trace = drp::make_instance(spec);
  EXPECT_LT(trace.access.effective_hot_objects(), 50.0);
  EXPECT_EQ(
      resolve_report_mode(trace, trace.server_count(), ReportMode::Auto),
      ReportMode::Naive);
  EXPECT_EQ(run_agt_ram(trace).resolved_mode, ReportMode::Naive);

  // An explicit request is never overridden.
  EXPECT_EQ(resolve_report_mode(dispersed, dispersed.server_count(),
                                ReportMode::Naive),
            ReportMode::Naive);
  EXPECT_EQ(
      resolve_report_mode(trace, trace.server_count(), ReportMode::Incremental),
      ReportMode::Incremental);
}

TEST(Audit, TruthfulParticipationIsIndividuallyRational) {
  // In the full sequential game a truthful winner pays the second-best
  // standing report, which its own (maximal) report weakly exceeds — so no
  // truthful agent ever ends with negative utility.
  const drp::Problem p = testutil::small_instance(85, 20, 60, 0.08);
  const MechanismResult result = run_agt_ram(p);
  for (const AgentOutcome& outcome : agent_outcomes(result)) {
    EXPECT_GE(outcome.utility(), -1e-9);
  }
  for (const RoundRecord& r : result.rounds) {
    EXPECT_LE(r.payment, r.claimed_value + 1e-9);
  }
}

}  // namespace
