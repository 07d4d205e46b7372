// Payment-rule ablation (Axiom 5's justification): why the second-price
// rule matters.
//
// The paper argues (Section 4, Motivation remarks) that over-projection,
// under-projection and random projection all fail against the second-best
// payment.  This bench makes that executable:
//
//  1. one-shot dominance margins per payment rule (the exact Lemma-1 /
//     Theorem-5 property);
//  2. full-game utilities of a strategic agent population under each rule;
//  3. the system-level OTC damage when the whole population drifts to its
//     best response (mis-ordered allocations under first-price shading).
#include <iostream>

#include "bench_common.hpp"
#include "common/prng.hpp"
#include "common/stats.hpp"
#include "core/agt_ram.hpp"
#include "core/audit.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace agtram;
  using core::PaymentRule;

  common::Cli cli("Payment-rule ablation: second-price vs first-price vs none");
  bench::add_common_flags(cli);
  bench::add_size_flags(cli);
  cli.add_flag("capacity", "30", "paper C%%");
  cli.add_flag("rw", "0.90", "read fraction");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  bench::Dims dims = bench::resolve_dims(cli);
  // This bench re-runs the full mechanism per (agent, distortion); keep the
  // default instance modest.
  if (!bench::paper_scale(cli)) {
    dims.servers = std::min<std::uint32_t>(dims.servers, 80);
    dims.objects = std::min<std::uint32_t>(dims.objects, 800);
  }
  const auto seed = cli.get_unsigned<std::uint64_t>("seed");
  const drp::Problem problem = bench::build_instance(
      dims, cli.get_double("capacity"), cli.get_double("rw"), seed);
  const double initial = drp::CostModel::initial_cost(problem);

  const std::vector<PaymentRule> rules{
      PaymentRule::SecondPrice, PaymentRule::FirstPrice, PaymentRule::None};
  const std::vector<double> distortions{0.5, 0.8, 1.25, 2.0};

  // ---- 1. One-shot dominance margins.
  {
    common::Table table({"payment rule", "trials", "min margin",
                         "manipulable trials"});
    table.set_title("One-shot dominance (Lemma 1 / Theorem 5): margin >= 0 "
                    "means truth-telling was weakly better");
    for (const PaymentRule rule : rules) {
      const auto trials =
          core::audit_one_shot_truthfulness(problem, rule, distortions);
      double min_margin = 0.0;
      std::size_t manipulable = 0;
      for (const auto& t : trials) {
        min_margin = std::min(min_margin, t.margin());
        if (t.margin() < -1e-9) ++manipulable;
      }
      table.add_row({core::to_string(rule), std::to_string(trials.size()),
                     common::Table::num(min_margin, 1),
                     std::to_string(manipulable)});
    }
    table.print(std::cout);
  }

  // ---- 2. Full-game margins for a sample of agents.
  {
    common::Table table({"payment rule", "mean margin", "min margin",
                         "agents who gained"});
    table.set_title("Full sequential game: utility(truthful) - "
                    "utility(deviant), sampled agents x distortions");
    common::Rng rng(seed);
    std::vector<drp::ServerId> sample;
    for (int s = 0; s < 6; ++s) {
      sample.push_back(
          static_cast<drp::ServerId>(rng.below(problem.server_count())));
    }
    for (const PaymentRule rule : rules) {
      common::RunningStats margins;
      std::size_t gained = 0;
      for (const drp::ServerId agent : sample) {
        for (const auto& t :
             core::audit_truthfulness(problem, rule, agent, distortions)) {
          margins.add(t.margin());
          if (t.margin() < -1e-6) ++gained;
        }
      }
      table.add_row({core::to_string(rule),
                     common::Table::num(margins.mean(), 1),
                     common::Table::num(margins.min(), 1),
                     std::to_string(gained)});
    }
    table.print(std::cout);
  }

  // ---- 3. System-level damage from population-wide strategic drift.
  {
    common::Table table({"population strategy", "payment rule",
                         "OTC savings", "total charges"});
    table.set_title(
        "System quality and transfers under population-wide strategic drift "
        "(proportional shading keeps the argmax order, so allocation quality "
        "survives; the clearing transfers swing wildly)");
    struct Scenario {
      const char* name;
      PaymentRule rule;
      double factor;  // population-wide claim distortion
    };
    const Scenario scenarios[] = {
        {"truthful", PaymentRule::SecondPrice, 1.0},
        {"truthful", PaymentRule::FirstPrice, 1.0},
        {"shade x0.5 (first-price BR)", PaymentRule::FirstPrice, 0.5},
        {"inflate x2 (none-rule drift)", PaymentRule::None, 2.0},
        {"random projection", PaymentRule::SecondPrice, -1.0},
    };
    for (const Scenario& s : scenarios) {
      core::AgtRamConfig cfg;
      cfg.payment_rule = s.rule;
      common::Rng noise(seed ^ 0xfeed);
      if (s.factor < 0.0) {
        // Draws from `noise` on every call, so it is stateful: only the
        // naive sweep, which re-invokes it every round, is well-defined.
        cfg.report_mode = core::ReportMode::Naive;
        cfg.strategy = [&noise](drp::ServerId, double v) {
          return v * noise.uniform(0.25, 4.0);
        };
      } else if (s.factor != 1.0) {
        const double f = s.factor;
        cfg.strategy = [f](drp::ServerId, double v) { return v * f; };
      }
      const auto result = core::run_agt_ram(problem, cfg);
      const double cost = drp::CostModel::total_cost(result.placement);
      table.add_row({s.name, core::to_string(s.rule),
                     common::Table::pct((initial - cost) / initial),
                     common::Table::num(result.total_payments(), 0)});
    }
    table.print(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return agtram::common::run_main(argc, argv, run);
}
