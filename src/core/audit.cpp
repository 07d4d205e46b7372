#include "core/audit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/obs.hpp"

namespace agtram::core {

namespace {

// The strategic audit's deviation factors, in sweep order: inflation (> 1),
// then deflation (< 1; 0 is bid suppression).
constexpr double kDeviationFactors[] = {1.25, 2.0, 5.0, 0.0, 0.5, 0.8};

// The round utility of the bidder in `slot` under the mechanism's own rules:
// its true value less its charge when it holds the best claim, else 0.
double round_utility(const SealedBids& bids, std::size_t slot,
                     PaymentRule rule) {
  if (bids.best() != slot) return 0.0;
  return bids.reports[slot].true_value -
         compute_payment(rule, bids.claims, slot);
}

// A misreport factor as a deviation: 1 is truthful, 0 zeroes the claim,
// and any other factor inflates or deflates it.
DeviationKind deviation_kind(double factor) {
  if (factor == 1.0) return DeviationKind::Truthful;
  if (factor == 0.0) return DeviationKind::Zero;
  return factor > 1.0 ? DeviationKind::Inflate : DeviationKind::Deflate;
}

// The mechanism run under `profile`, with `observer` installed.
MechanismResult run_profile(const drp::Problem& problem,
                            const StrategicAuditConfig& config,
                            const StrategyProfile& profile,
                            MechanismObserver* observer = nullptr) {
  AgtRamConfig cfg;
  cfg.payment_rule = config.payment_rule;
  cfg.strategy = profile.compile(problem.server_count());
  cfg.observer = observer;
  return run_agt_ram(problem, cfg);
}

// Copies a deviant run's per-round evidence into its trial.
void record_rounds(const RoundAuditor& auditor, StrategicTrial& trial) {
  trial.rounds_checked = auditor.rounds_audited();
  trial.round_violations = auditor.violations();
  trial.min_round_margin = std::isfinite(auditor.min_round_margin())
                               ? auditor.min_round_margin()
                               : 0.0;
}

// One deviant run: `agent` scales every claim by `factor`, the others stay
// truthful, and a RoundAuditor watches the deviant.
StrategicTrial run_trial(const drp::Problem& problem,
                         const StrategicAuditConfig& config,
                         drp::ServerId agent, double factor,
                         double truthful_utility) {
  StrategyProfile profile;
  profile.deviations.push_back(
      Deviation{agent, deviation_kind(factor), factor});
  RoundAuditor auditor(config.payment_rule, profile.deviating_agents());
  const MechanismResult deviant =
      run_profile(problem, config, profile, &auditor);

  StrategicTrial trial;
  trial.agent = agent;
  trial.kind = profile.deviations.front().kind;
  trial.factor = factor;
  trial.truthful_utility = truthful_utility;
  trial.deviant_utility = agent_outcomes(deviant)[agent].utility();
  record_rounds(auditor, trial);
  AGTRAM_OBS_COUNT("audit.trials", 1);
  return trial;
}

}  // namespace

RoundAuditor::RoundAuditor(PaymentRule rule,
                           std::vector<drp::ServerId> watched)
    : rule_(rule), watched_(std::move(watched)) {
  std::sort(watched_.begin(), watched_.end());
  watched_.erase(std::unique(watched_.begin(), watched_.end()),
                 watched_.end());
}

void RoundAuditor::on_round_begin(std::size_t) {
  bids_.clear();
  ++rounds_;
  AGTRAM_OBS_COUNT("audit.rounds", 1);
}

void RoundAuditor::on_report(drp::ServerId agent, const Report& report,
                             bool /*fresh*/) {
  if (report.has_candidate) bids_.add(agent, report);
}

void RoundAuditor::on_allocation(drp::ServerId winner, drp::ObjectIndex,
                                 double payment) {
  if (bids_.empty()) {
    throw std::logic_error("allocation without any report");
  }
  const std::size_t best = bids_.best();
  if (winner != bids_.bidders[best]) {
    throw std::logic_error("the winner does not hold the highest claim");
  }
  const double expected = compute_payment(rule_, bids_.claims, best);
  if (std::abs(payment - expected) >
      1e-6 * std::max(1.0, bids_.claims[best])) {
    throw std::logic_error("payment does not match the payment rule");
  }

  for (const drp::ServerId who : watched_) {
    // No standing report means no feasible candidate, so no bid (truthful
    // or not) was possible.
    const auto it = std::find(bids_.bidders.begin(), bids_.bidders.end(), who);
    if (it == bids_.bidders.end()) continue;
    const auto slot = static_cast<std::size_t>(it - bids_.bidders.begin());
    const double true_value = bids_.reports[slot].true_value;

    // Realised round utility of the actual (possibly distorted) bid.
    const double realized = winner == who ? true_value - payment : 0.0;

    // Counterfactual: the same round with `who` bidding its true valuation,
    // everyone else's claims fixed.
    const double claimed = bids_.claims[slot];
    bids_.claims[slot] = true_value;
    const double truthful = round_utility(bids_, slot, rule_);
    bids_.claims[slot] = claimed;

    const double margin = truthful - realized;
    min_margin_ = std::min(min_margin_, margin);
    ++checks_;
    AGTRAM_OBS_COUNT("audit.checks", 1);
    const double eps =
        1e-6 * std::max({1.0, std::abs(truthful), std::abs(realized)});
    if (margin < -eps) {
      ++violations_;
      AGTRAM_OBS_COUNT("audit.violations", 1);
    }
  }
}

std::vector<OneShotTrial> audit_one_shot_truthfulness(
    const drp::Problem& problem, PaymentRule rule,
    const std::vector<double>& distortions) {
  // The first round's report profile: one sealed-bid round from the
  // primaries-only scheme.
  const drp::ReplicaPlacement placement(problem);
  std::vector<Agent> agents = build_agents(problem);
  std::vector<std::uint32_t> live = live_agents(agents);
  SealedBids bids;
  poll_round(agents, live, placement, {}, nullptr, bids);

  std::vector<OneShotTrial> trials;
  for (std::size_t slot = 0; slot < bids.bidders.size(); ++slot) {
    const double claim = bids.claims[slot];
    const double truthful = round_utility(bids, slot, rule);
    for (const double factor : distortions) {
      bids.claims[slot] = claim * factor;
      trials.push_back(OneShotTrial{bids.bidders[slot], factor, truthful,
                                    round_utility(bids, slot, rule)});
    }
    bids.claims[slot] = claim;
  }
  return trials;
}

std::vector<StrategicTrial> audit_truthfulness(
    const drp::Problem& problem, PaymentRule rule, drp::ServerId agent,
    const std::vector<double>& distortions) {
  StrategicAuditConfig config;
  config.payment_rule = rule;
  const double truthful_utility =
      agent_outcomes(run_profile(problem, config, {}))[agent].utility();

  std::vector<StrategicTrial> trials;
  trials.reserve(distortions.size());
  for (const double factor : distortions) {
    trials.push_back(
        run_trial(problem, config, agent, factor, truthful_utility));
  }
  return trials;
}

StrategicAuditReport strategic_audit(const drp::Problem& problem,
                                     const StrategicAuditConfig& config) {
  const MechanismResult truthful = run_profile(problem, config, {});
  const std::vector<AgentOutcome> outcomes = agent_outcomes(truthful);

  // Probe the truthful run's top winners: their misreports are the ones
  // that can actually move the allocation.
  std::vector<drp::ServerId> ranked(problem.server_count());
  std::iota(ranked.begin(), ranked.end(), 0);
  std::sort(ranked.begin(), ranked.end(),
            [&](drp::ServerId a, drp::ServerId b) {
              const AgentOutcome& oa = outcomes[a];
              const AgentOutcome& ob = outcomes[b];
              if ((oa.objects_won > 0) != (ob.objects_won > 0)) {
                return oa.objects_won > 0;
              }
              if (oa.utility() != ob.utility()) {
                return oa.utility() > ob.utility();
              }
              return a < b;
            });
  std::vector<drp::ServerId> probes;
  for (const drp::ServerId who : ranked) {
    if (probes.size() >= config.agents_to_probe) break;
    if (outcomes[who].objects_won == 0) break;
    probes.push_back(who);
  }

  StrategicAuditReport report;
  for (const drp::ServerId who : probes) {
    const double truthful_utility = outcomes[who].utility();
    for (const double factor : kDeviationFactors) {
      report.trials.push_back(
          run_trial(problem, config, who, factor, truthful_utility));
    }
  }

  // Collusion ring over the top winners (needs at least two members).
  if (config.collusion_size >= 2 && probes.size() >= 2) {
    CollusionGroup ring;
    ring.members.assign(
        probes.begin(),
        probes.begin() +
            std::min<std::size_t>(config.collusion_size, probes.size()));
    const drp::ServerId leader = ring.leader();

    StrategyProfile ring_profile;
    ring_profile.collusion_groups.push_back(ring);
    RoundAuditor ring_auditor(config.payment_rule,
                              ring_profile.deviating_agents());
    const MechanismResult ring_run =
        run_profile(problem, config, ring_profile, &ring_auditor);
    const std::vector<AgentOutcome> ring_outcomes = agent_outcomes(ring_run);

    report.collusion.members = ring.members;
    report.collusion.truthful_revenue = truthful.total_payments();
    report.collusion.collusive_revenue = ring_run.total_payments();
    report.collusion.round_violations = ring_auditor.violations();

    // Each non-leader member unilaterally reverts to truth while the rest
    // of the ring keeps suppressing: dominance says it can only gain.
    for (const drp::ServerId member : ring.members) {
      if (member == leader) continue;
      CollusionGroup rest;
      for (const drp::ServerId other : ring.members) {
        if (other != member) rest.members.push_back(other);
      }
      StrategyProfile revert_profile;
      revert_profile.collusion_groups.push_back(rest);
      RoundAuditor revert_auditor(config.payment_rule,
                                  revert_profile.deviating_agents());
      const MechanismResult revert_run =
          run_profile(problem, config, revert_profile, &revert_auditor);

      StrategicTrial reversion;
      reversion.agent = member;
      reversion.kind = DeviationKind::Zero;
      reversion.factor = 0.0;
      reversion.truthful_utility =
          agent_outcomes(revert_run)[member].utility();
      reversion.deviant_utility = ring_outcomes[member].utility();
      record_rounds(revert_auditor, reversion);
      report.collusion.reversion.push_back(reversion);
      AGTRAM_OBS_COUNT("audit.trials", 1);
    }
  }

  report.total_round_violations = report.collusion.round_violations;
  report.min_full_game_margin = std::numeric_limits<double>::infinity();
  for (const StrategicTrial& trial : report.trials) {
    report.total_round_violations += trial.round_violations;
    report.min_full_game_margin =
        std::min(report.min_full_game_margin, trial.margin());
  }
  for (const StrategicTrial& trial : report.collusion.reversion) {
    report.total_round_violations += trial.round_violations;
    report.min_full_game_margin =
        std::min(report.min_full_game_margin, trial.margin());
  }
  if (!std::isfinite(report.min_full_game_margin)) {
    report.min_full_game_margin = 0.0;
  }
  // The gate is the exact invariant: Lemma 1 / Theorem 5 are one-shot, and
  // every audited round must honour them.  Full-game margins are reported
  // but not gated — under the global clearing price an under-bidder can
  // legitimately shift its wins to later, cheaper rounds (the sequential
  // game is not dominance-solvable; see the header).
  report.dominance_holds =
      report.total_round_violations == 0 && !report.trials.empty();
  return report;
}

}  // namespace agtram::core
