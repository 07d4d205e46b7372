// Strategic-agent suite: StrategyProfile compilation, the per-round
// dominance invariant under randomized deviation profiles (dispersed and
// trace demand), and the bidding-ring collusion case.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/prng.hpp"
#include "core/agt_ram.hpp"
#include "core/audit.hpp"
#include "core/strategy.hpp"
#include "drp/builder.hpp"
#include "test_helpers.hpp"

namespace agtram {
namespace {

using core::CollusionGroup;
using core::Deviation;
using core::DeviationKind;
using core::StrategyProfile;

drp::Problem dispersed_instance(std::uint64_t seed, std::uint32_t servers = 24,
                                std::uint32_t objects = 60) {
  drp::InstanceSpec spec;
  spec.servers = servers;
  spec.objects = objects;
  spec.seed = seed;
  spec.demand = drp::DemandModel::Dispersed;
  spec.readers_per_object = 6.0;
  spec.instance.capacity_fraction = 0.15;
  spec.instance.rw_ratio = 0.9;
  return drp::make_instance(spec);
}

TEST(StrategyProfile, MultiplierResolution) {
  StrategyProfile profile;
  profile.deviations.push_back({3, DeviationKind::Inflate, 2.0});
  profile.deviations.push_back({5, DeviationKind::Deflate, 0.5});
  profile.deviations.push_back({3, DeviationKind::Zero, 1.0});  // later wins
  EXPECT_DOUBLE_EQ(profile.multiplier_for(3), 0.0);
  EXPECT_DOUBLE_EQ(profile.multiplier_for(5), 0.5);
  EXPECT_DOUBLE_EQ(profile.multiplier_for(7), 1.0);
  EXPECT_TRUE(profile.deviates(3));
  EXPECT_FALSE(profile.deviates(7));

  // Collusion membership (non-leader) overrides individual deviations; the
  // leader (lowest id) keeps its own multiplier.
  profile.collusion_groups.push_back(CollusionGroup{{9, 5, 12}});
  EXPECT_EQ(profile.collusion_groups[0].leader(), 5u);
  EXPECT_DOUBLE_EQ(profile.multiplier_for(5), 0.5);   // leader unchanged
  EXPECT_DOUBLE_EQ(profile.multiplier_for(9), 0.0);   // suppressed
  EXPECT_DOUBLE_EQ(profile.multiplier_for(12), 0.0);  // suppressed

  const auto deviating = profile.deviating_agents();
  EXPECT_EQ(deviating, (std::vector<drp::ServerId>{3, 5, 9, 12}));
}

TEST(StrategyProfile, CompileMatchesMultipliers) {
  StrategyProfile profile;
  profile.deviations.push_back({1, DeviationKind::Inflate, 3.0});
  profile.deviations.push_back({4, DeviationKind::Zero, 1.0});
  const core::ReportStrategy strategy = profile.compile(6);
  ASSERT_TRUE(strategy);
  EXPECT_DOUBLE_EQ(strategy(0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(strategy(1, 10.0), 30.0);
  EXPECT_DOUBLE_EQ(strategy(4, 10.0), 0.0);
  // Agents beyond the compiled table stay truthful.
  EXPECT_DOUBLE_EQ(strategy(99, 10.0), 10.0);

  // An identity profile compiles to no hook at all.
  EXPECT_FALSE(StrategyProfile{}.compile(6));
  StrategyProfile truthful;
  truthful.deviations.push_back({2, DeviationKind::Truthful, 1.0});
  EXPECT_FALSE(truthful.compile(6));
}

// The exact invariant: in a run where randomly chosen agents misreport,
// every audited round shows the deviating agent could not have done better
// than its truthful bid under second price.  Swept over both demand
// families, both report modes, and several random profiles.
TEST(StrategicDominance, RandomDeviationProfilesNeverGain) {
  std::vector<drp::Problem> instances;
  instances.push_back(dispersed_instance(21));
  instances.push_back(testutil::small_instance(22));  // trace family

  common::Rng rng(4242);
  for (const drp::Problem& p : instances) {
    for (const core::ReportMode mode :
         {core::ReportMode::Naive, core::ReportMode::Incremental}) {
      for (int profile_index = 0; profile_index < 4; ++profile_index) {
        StrategyProfile profile;
        const std::size_t count = 1 + rng.below(3);
        for (std::size_t d = 0; d < count; ++d) {
          Deviation dev;
          dev.agent = static_cast<drp::ServerId>(rng.below(p.server_count()));
          switch (rng.below(3)) {
            case 0:
              dev.kind = DeviationKind::Inflate;
              dev.factor = 1.0 + 4.0 * rng.uniform();
              break;
            case 1:
              dev.kind = DeviationKind::Deflate;
              dev.factor = 0.1 + 0.8 * rng.uniform();
              break;
            default:
              dev.kind = DeviationKind::Zero;
              break;
          }
          profile.deviations.push_back(dev);
        }

        core::RoundAuditor auditor(core::PaymentRule::SecondPrice,
                                   profile.deviating_agents());
        core::AgtRamConfig cfg;
        cfg.report_mode = mode;
        cfg.strategy = profile.compile(p.server_count());
        cfg.observer = &auditor;
        const core::MechanismResult result = core::run_agt_ram(p, cfg);

        EXPECT_EQ(auditor.violations(), 0u)
            << "per-round dominance violated (mode="
            << (mode == core::ReportMode::Naive ? "naive" : "incremental")
            << ", profile=" << profile_index << ")";
        EXPECT_GT(result.rounds.size(), 0u);
        if (auditor.checks() > 0) {
          EXPECT_GE(auditor.min_round_margin(), -1e-9);
        }
      }
    }
  }
}

TEST(StrategicAudit, DominanceHoldsOnDispersedFamily) {
  const drp::Problem p = dispersed_instance(31);
  const core::StrategicAuditReport report = core::strategic_audit(p);

  EXPECT_TRUE(report.dominance_holds);
  EXPECT_EQ(report.total_round_violations, 0u);
  EXPECT_FALSE(report.trials.empty());
  for (const core::StrategicTrial& trial : report.trials) {
    EXPECT_EQ(trial.round_violations, 0u);
    EXPECT_GT(trial.rounds_checked, 0u);
    EXPECT_GE(trial.min_round_margin, -1e-9);
    // Over-projection advances wins into more expensive rounds: on this
    // (deterministic) instance every inflation trial loses the full game
    // too, matching the paper's over-projection story.
    if (trial.kind == DeviationKind::Inflate) {
      EXPECT_GE(trial.margin(),
                -1e-6 * std::max(1.0, std::abs(trial.truthful_utility)))
          << "agent " << trial.agent << " gained by inflating x"
          << trial.factor;
    }
  }
}

TEST(StrategicAudit, DominanceHoldsOnTraceFamily) {
  const drp::Problem p = testutil::small_instance(33, 20, 50);
  core::StrategicAuditConfig cfg;
  cfg.agents_to_probe = 3;
  const core::StrategicAuditReport report = core::strategic_audit(p, cfg);

  EXPECT_TRUE(report.dominance_holds);
  EXPECT_EQ(report.total_round_violations, 0u);
  EXPECT_FALSE(report.trials.empty());
}

TEST(StrategicAudit, CollusionRingDepressesRevenueButNotRounds) {
  const drp::Problem p = dispersed_instance(37);
  core::StrategicAuditConfig cfg;
  cfg.collusion_size = 3;
  const core::StrategicAuditReport report = core::strategic_audit(p, cfg);

  const core::CollusionAudit& ring = report.collusion;
  if (ring.members.size() < 2) GTEST_SKIP() << "instance drained too fast";

  // The ring depresses centre revenue, never raises it.
  EXPECT_LE(ring.collusive_revenue, ring.truthful_revenue + 1e-9);
  // ...but no suppressed member's zero bid ever beat truth within a round:
  // the exact invariant survives collusion.
  EXPECT_EQ(ring.round_violations, 0u);
  // One reversion trial per non-leader member, with finite utilities.
  EXPECT_EQ(ring.reversion.size(), ring.members.size() - 1);
  for (const core::StrategicTrial& trial : ring.reversion) {
    EXPECT_TRUE(std::isfinite(trial.truthful_utility));
    EXPECT_TRUE(std::isfinite(trial.deviant_utility));
  }
}

TEST(StrategicAudit, AuditIsDeterministic) {
  const drp::Problem p = dispersed_instance(41);
  const core::StrategicAuditReport a = core::strategic_audit(p);
  const core::StrategicAuditReport b = core::strategic_audit(p);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_EQ(a.trials[i].agent, b.trials[i].agent);
    EXPECT_EQ(a.trials[i].deviant_utility, b.trials[i].deviant_utility);
  }
  EXPECT_EQ(a.min_full_game_margin, b.min_full_game_margin);
}

}  // namespace
}  // namespace agtram
