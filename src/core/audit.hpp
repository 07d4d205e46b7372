// Axiom audits: executable checks of the game-theoretic properties the
// paper proves on paper (Lemma 1, Theorems 3 and 5).  Tests, the payment
// ablation bench and the truthfulness demo run these on concrete instances.
// Every audit judges a round by the mechanism's own winner rule
// (SealedBids::best()) and payment rule (compute_payment).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/agt_ram.hpp"
#include "core/strategy.hpp"
#include "drp/problem.hpp"

namespace agtram::core {

/// Per-round audit, installed as AgtRamConfig::observer.  It keeps each
/// round's standing bids (both report paths deliver them in ascending id)
/// and checks every allocation against them:
///  - Axiom 4 (utilitarian): the winner holds SealedBids::best(), the first
///    highest claim;
///  - Axiom 5 (motivation): the payment equals compute_payment over the
///    standing claims.
/// A mismatch is a mechanism bug and throws std::logic_error.  (Feasibility
/// is the mechanism's own check_feasible, not the auditor's.)
///
/// For each `watched` agent, typically the misreporting agents of a
/// strategic run, it also checks the exact one-shot invariant behind
/// Lemma 1 / Theorem 5: with all other claims held fixed, the agent's round
/// utility had it bid its true valuation is >= the utility its actual bid
/// realised.  Under PaymentRule::SecondPrice this holds in every round;
/// under FirstPrice deflation legitimately breaks it, so a violation is
/// counted, not thrown.
class RoundAuditor : public MechanismObserver {
 public:
  explicit RoundAuditor(PaymentRule rule,
                        std::vector<drp::ServerId> watched = {});

  void on_round_begin(std::size_t round) override;
  /// Records the full standing-report profile: under the incremental
  /// protocol cached (non-fresh) reports are part of the round's argmax and
  /// payment basis exactly like fresh ones.
  void on_report(drp::ServerId agent, const Report& report,
                 bool fresh) override;
  void on_allocation(drp::ServerId winner, drp::ObjectIndex object,
                     double payment) override;

  std::size_t rounds_audited() const noexcept { return rounds_; }
  /// (round, watched agent) pairs checked; an agent with no standing
  /// candidate in a round is skipped, since it cannot bid at all.
  std::size_t checks() const noexcept { return checks_; }
  std::size_t violations() const noexcept { return violations_; }
  /// Smallest (truthful - realised) round margin seen; >= 0 when dominance
  /// held everywhere, +inf when nothing was checked.
  double min_round_margin() const noexcept { return min_margin_; }

 private:
  PaymentRule rule_;
  std::vector<drp::ServerId> watched_;
  SealedBids bids_;
  std::size_t rounds_ = 0;
  std::size_t checks_ = 0;
  std::size_t violations_ = 0;
  double min_margin_ = std::numeric_limits<double>::infinity();
};

/// One-shot dominance audit (the exact property behind Lemma 1 / Theorem 5;
/// both are proved for a single allocation decision).  Takes the first
/// round's report profile, and for every agent and every distortion factor
/// compares the agent's round utility (win: value - payment; lose: 0) when
/// truthful vs. when scaling its claim, with all other reports held fixed.
struct OneShotTrial {
  drp::ServerId agent;
  double distortion;
  double truthful_utility;
  double deviant_utility;
  double margin() const noexcept { return truthful_utility - deviant_utility; }
};

/// Under PaymentRule::SecondPrice every margin is >= 0 (exact dominance);
/// under FirstPrice under-projection produces negative margins.
std::vector<OneShotTrial> audit_one_shot_truthfulness(
    const drp::Problem& problem, PaymentRule rule,
    const std::vector<double>& distortions);

/// One *full-game* deviation: the agent's utility over the whole run when
/// truthful vs. when deviating in every round, plus the per-round dominance
/// evidence a RoundAuditor gathered in the deviant run.  The sequential game
/// is not dominance-solvable in general (the paper's proofs are one-shot),
/// so the full-game margin is an empirical measurement; the round
/// violations are the exact invariant and must be 0 under SecondPrice.
struct StrategicTrial {
  drp::ServerId agent = 0;
  DeviationKind kind = DeviationKind::Truthful;
  double factor = 1.0;
  double truthful_utility = 0.0;
  double deviant_utility = 0.0;
  std::size_t rounds_checked = 0;
  std::size_t round_violations = 0;
  double min_round_margin = 0.0;
  /// >= 0 means truth-telling was (weakly) better over the whole game.
  double margin() const noexcept { return truthful_utility - deviant_utility; }
};

/// Empirically checks Axiom 3 / Theorem 5: runs the mechanism with every
/// agent truthful, then once per factor in `distortions` with `agent`
/// scaling every claim by it (0 zeroes the claim, 1 is truthful), the
/// others truthful.  Each deviant run is a strategic_audit trial.
std::vector<StrategicTrial> audit_truthfulness(
    const drp::Problem& problem, PaymentRule rule, drp::ServerId agent,
    const std::vector<double>& distortions);

/// The bidding-ring case: members (except the leader) zero-bid.  The ring
/// depresses the clearing prices — collusive_revenue <= truthful_revenue —
/// and the per-round invariant still holds for every suppressed member (no
/// round exists where the zero bid beat what truth would have realised in
/// that round).  `reversion` reports each non-leader member's full-game
/// utility when it unilaterally reverts to truth vs staying suppressed —
/// empirical data, like all full-game margins (see StrategicAuditReport).
/// A reversion trial's rounds_checked, round_violations and
/// min_round_margin come from a RoundAuditor on its reversion run, which
/// watches the members that still zero-bid there; the reverting member bids
/// its truth and is not watched.
struct CollusionAudit {
  std::vector<drp::ServerId> members;
  double truthful_revenue = 0.0;   ///< total payments, all agents truthful
  double collusive_revenue = 0.0;  ///< total payments under the ring
  std::size_t round_violations = 0;
  /// Per non-leader member: utility(unilateral revert) - utility(in ring).
  std::vector<StrategicTrial> reversion;
};

struct StrategicAuditConfig {
  PaymentRule payment_rule = PaymentRule::SecondPrice;
  ReportMode report_mode = ReportMode::Auto;
  /// How many agents to probe, picked from the truthful run's top winners
  /// (their deviations are the ones that can move the allocation).
  std::size_t agents_to_probe = 4;
  /// Ring size for the collusion case (0 disables it).
  std::size_t collusion_size = 3;
};

struct StrategicAuditReport {
  std::vector<StrategicTrial> trials;
  CollusionAudit collusion;
  /// Over the trials, the ring run and the ring's reversion runs.
  std::size_t total_round_violations = 0;
  /// min over trials (and collusion reversions) of the full-game margin.
  /// Empirical only: negative values are legitimate — under the global
  /// clearing price an under-bidder can shift its wins to later, cheaper
  /// rounds, so the sequential game rewards patience even though no single
  /// round ever does (inflation, by contrast, advances wins into *more*
  /// expensive rounds and loses; the per-round invariant holds throughout).
  double min_full_game_margin = 0.0;
  /// The acceptance bar for SecondPrice: the exact per-round invariant held
  /// in every audited round of every trial (no misreporting agent's bid
  /// ever beat what its truthful bid would have realised in that round).
  bool dominance_holds = false;
};

/// Sweeps deviation magnitudes over the truthful run's top winners, running
/// the mechanism once per (agent, factor) with a RoundAuditor watching the
/// deviant, plus the collusion-ring case.  The factors are fixed: the
/// inflation sweep 1.25, 2 and 5, then the deflation sweep 0 (bid
/// suppression, DeviationKind::Zero), 0.5 and 0.8.  Deterministic: the
/// mechanism is deterministic and the probe set derives from the truthful
/// run.
StrategicAuditReport strategic_audit(const drp::Problem& problem,
                                     const StrategicAuditConfig& config = {});

}  // namespace agtram::core
