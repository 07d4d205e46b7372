// Truthfulness demo: the game-theoretic machinery of Sections 3-4 made
// visible on a small instance.
//
// Walks through (1) the agents' private valuations, (2) one mechanism round
// with its second-price clearing, (3) the one-shot dominance audit of
// Lemma 1 / Theorem 5, and (4) what goes wrong for a deviating agent under
// the first-price rule that Axiom 5 rejects.
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/agt_ram.hpp"
#include "core/audit.hpp"
#include "core/strategy.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace agtram;

  common::Cli cli("Axiomatic mechanism walkthrough: valuations, clearing, "
                  "and the truthfulness audits");
  cli.add_flag("servers", "12", "number of servers");
  cli.add_flag("objects", "30", "number of objects");
  cli.add_flag("seed", "5", "experiment seed");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  drp::InstanceSpec spec;
  spec.servers = cli.get_unsigned<std::uint32_t>("servers");
  spec.objects = cli.get_unsigned<std::uint32_t>("objects");
  spec.seed = cli.get_unsigned<std::uint64_t>("seed");
  spec.instance.capacity_fraction = 0.08;
  spec.instance.rw_ratio = 0.9;
  const drp::Problem problem = drp::make_instance(spec);

  // --- 1. Private valuations (Axiom 2): what each agent would save by
  // hosting its favourite object.
  {
    const drp::ReplicaPlacement primaries(problem);
    common::Table table({"agent", "best object", "valuation CoR (Eq. 5)"});
    table.set_title("round-0 private valuations");
    for (drp::ServerId i = 0; i < problem.server_count(); ++i) {
      double best = 0.0;
      drp::ObjectIndex best_k = 0;
      for (const auto& a : problem.access.server_objects(i)) {
        if (a.reads == 0 || problem.primary[a.object] == i) continue;
        const double v = drp::CostModel::agent_benefit(primaries, i, a.object);
        if (v > best) {
          best = v;
          best_k = a.object;
        }
      }
      table.add_row({"S" + std::to_string(i),
                     best > 0 ? "O" + std::to_string(best_k) : "-",
                     common::Table::num(best, 0)});
    }
    table.print(std::cout);
  }

  // --- 2. Run the mechanism and show the first rounds' clearing.
  const core::MechanismResult result = core::run_agt_ram(problem);
  {
    common::Table table({"round", "winner", "object", "winning report",
                         "second-price charge", "winner's round utility"});
    table.set_title("mechanism rounds (Axiom 6) with second-price clearing "
                    "(Axiom 5)");
    for (std::size_t r = 0; r < std::min<std::size_t>(8, result.rounds.size());
         ++r) {
      const auto& round = result.rounds[r];
      table.add_row({std::to_string(r), "S" + std::to_string(round.winner),
                     "O" + std::to_string(round.object),
                     common::Table::num(round.claimed_value, 0),
                     common::Table::num(round.payment, 0),
                     common::Table::num(round.true_value - round.payment, 0)});
    }
    table.print(std::cout);
    std::cout << "total rounds: " << result.rounds.size() << ", final savings: "
              << common::Table::pct(drp::CostModel::savings(result.placement))
              << "\n\n";
  }

  // --- 3. One-shot dominance audit (Axiom 3).
  const std::vector<double> distortions{0.5, 0.8, 1.5, 3.0};
  {
    const auto trials = core::audit_one_shot_truthfulness(
        problem, core::PaymentRule::SecondPrice, distortions);
    std::size_t manipulable = 0;
    for (const auto& t : trials) {
      if (t.margin() < -1e-9) ++manipulable;
    }
    std::cout << "second-price one-shot audit: " << trials.size()
              << " (agent x distortion) trials, " << manipulable
              << " profitable deviations  -> truth-telling is dominant\n";
  }

  // --- 4. The same audit under first-price: shading pays.
  {
    const auto trials = core::audit_one_shot_truthfulness(
        problem, core::PaymentRule::FirstPrice, distortions);
    common::Table table({"agent", "distortion", "truthful utility",
                         "deviant utility"});
    table.set_title("first-price counterexamples (why Axiom 5 picks "
                    "second-price)");
    std::size_t shown = 0;
    for (const auto& t : trials) {
      if (t.margin() < -1e-9 && shown < 5) {
        table.add_row({"S" + std::to_string(t.agent),
                       "x" + common::Table::num(t.distortion, 2),
                       common::Table::num(t.truthful_utility, 0),
                       common::Table::num(t.deviant_utility, 0)});
        ++shown;
      }
    }
    if (shown == 0) {
      std::cout << "(no first-price counterexample on this seed; try "
                   "--seed)\n";
    } else {
      table.print(std::cout);
    }
  }

  // --- 5. Strategic agents in the *full* sequential game: inject a
  // StrategyProfile into the report path and sweep deviation magnitudes
  // with core::strategic_audit.  The exact invariant (checked every round
  // by a RoundAuditor watching the deviant) is the one-shot one; the
  // full-game margins are empirical — under-bidders can shift wins to
  // later, cheaper rounds, but no single round ever rewards the lie.
  {
    core::StrategicAuditConfig audit_cfg;
    audit_cfg.agents_to_probe = 3;
    audit_cfg.collusion_size = 3;
    const core::StrategicAuditReport report =
        core::strategic_audit(problem, audit_cfg);

    common::Table table({"agent", "deviation", "truthful utility",
                         "deviant utility", "round violations"});
    table.set_title("strategic sweep (core::strategic_audit): per-round "
                    "dominance under every deviation");
    for (const auto& trial : report.trials) {
      const char* kind =
          trial.kind == core::DeviationKind::Inflate
              ? "inflate"
              : trial.kind == core::DeviationKind::Zero ? "zero" : "deflate";
      table.add_row({"S" + std::to_string(trial.agent),
                     std::string(kind) + " x" +
                         common::Table::num(trial.factor, 2),
                     common::Table::num(trial.truthful_utility, 0),
                     common::Table::num(trial.deviant_utility, 0),
                     std::to_string(trial.round_violations)});
    }
    table.print(std::cout);
    std::cout << "per-round dominance: "
              << (report.dominance_holds ? "held in every audited round"
                                         : "VIOLATED")
              << " (" << report.total_round_violations << " violations)\n";
    std::cout << "bidding ring of " << report.collusion.members.size()
              << ": centre revenue " << report.collusion.truthful_revenue
              << " (truthful) -> " << report.collusion.collusive_revenue
              << " (ring)\n";

    // The same lie wired straight into a mechanism run, for comparison: a
    // compiled StrategyProfile is just AgtRamConfig::strategy.
    core::StrategyProfile lie;
    lie.deviations.push_back(
        {report.trials.empty() ? drp::ServerId{0} : report.trials[0].agent,
         core::DeviationKind::Zero, 1.0});
    core::AgtRamConfig lie_cfg;
    lie_cfg.strategy = lie.compile(problem.server_count());
    const core::MechanismResult lied = core::run_agt_ram(problem, lie_cfg);
    std::cout << "one agent zero-bidding end to end: savings "
              << common::Table::pct(drp::CostModel::savings(result.placement))
              << " (truthful) vs "
              << common::Table::pct(drp::CostModel::savings(lied.placement))
              << " (lying)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return agtram::common::run_main(argc, argv, run);
}
