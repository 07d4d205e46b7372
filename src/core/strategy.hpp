// Strategic (misreporting) agents — the adversarial side of Axiom 3.
//
// The paper proves truth-telling is a dominant strategy (Lemma 1, Theorem 5)
// but every bench agent so far has been honest.  A StrategyProfile names the
// agents that deviate — inflating, deflating, or zeroing their Eq.-5
// valuations, or colluding in groups — and compiles down to the existing
// ReportStrategy hook of AgtRamConfig, so the same profile can be injected
// into run_agt_ram, run_agt_ram_from, and (through OnlineConfig::mechanism)
// the online engine's repair rounds.
//
// Collusion is modelled as the classic Vickrey bidding ring: every member
// except the designated leader (the lowest id) suppresses its bid to zero.
// The ring lowers the clearing price the leader pays when the suppressed
// bids would have set it — centre revenue drops — but no *individual* member
// can gain by the suppression itself, which is exactly what the audit
// measures (core/audit.hpp: strategic_audit).
//
// The compiled strategy is stateless — claimed = factor(agent) * value — so
// it is well-defined under both report modes (a cached standing report under
// ReportMode::Incremental is the value the same call would produce fresh).
#pragma once

#include <cstdint>
#include <vector>

#include "core/agent.hpp"
#include "drp/problem.hpp"

namespace agtram::core {

enum class DeviationKind {
  Truthful,  ///< identity (useful as a sweep's control row)
  Inflate,   ///< claim = factor * value, factor > 1 (over-projection)
  Deflate,   ///< claim = factor * value, factor in (0, 1) (under-projection)
  Zero,      ///< claim = 0 (bid suppression)
};

/// One agent's misreporting rule.  `factor` is the multiplicative distortion
/// for Inflate/Deflate and ignored for Truthful/Zero.
struct Deviation {
  drp::ServerId agent = 0;
  DeviationKind kind = DeviationKind::Truthful;
  double factor = 1.0;

  /// The multiplier actually applied to the true valuation.
  double multiplier() const noexcept {
    switch (kind) {
      case DeviationKind::Truthful: return 1.0;
      case DeviationKind::Inflate:
      case DeviationKind::Deflate: return factor;
      case DeviationKind::Zero: return 0.0;
    }
    return 1.0;
  }
};

/// A bidding ring: every member except the leader zero-bids.  The leader is
/// the lowest member id (deterministic; no configuration needed).
struct CollusionGroup {
  std::vector<drp::ServerId> members;

  drp::ServerId leader() const;
};

/// The full strategic posture of a mechanism run: individual deviations plus
/// collusion groups.  Later entries win when an agent appears twice; a
/// collusion membership (non-leader) overrides any individual deviation.
struct StrategyProfile {
  std::vector<Deviation> deviations;
  std::vector<CollusionGroup> collusion_groups;

  bool empty() const noexcept {
    return deviations.empty() && collusion_groups.empty();
  }

  /// The multiplier agent `who` applies to its true valuations (1.0 for
  /// agents the profile does not name).
  double multiplier_for(drp::ServerId who) const;

  /// True when the profile distorts `who`'s reports (multiplier != 1).
  bool deviates(drp::ServerId who) const {
    return multiplier_for(who) != 1.0;
  }

  /// Every agent with a non-identity multiplier, ascending, deduplicated.
  std::vector<drp::ServerId> deviating_agents() const;

  /// Compiles the profile to the stateless ReportStrategy the mechanism's
  /// report path consumes: a dense per-agent multiplier table captured by
  /// value, O(1) per report.  `server_count` bounds the table (agents beyond
  /// it are truthful).
  ReportStrategy compile(std::size_t server_count) const;
};

}  // namespace agtram::core
