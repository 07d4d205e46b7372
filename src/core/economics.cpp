#include "core/economics.hpp"

#include <algorithm>
#include <vector>

namespace agtram::core {

EconomicsReport economics_report(const MechanismResult& result) {
  EconomicsReport report;
  report.rounds = result.rounds.size();

  double dominance_sum = 0.0;
  std::size_t dominance_rounds = 0;
  for (const RoundRecord& round : result.rounds) {
    report.welfare += round.true_value;
    report.charges += round.payment;
    if (round.payment > 0.0) {
      dominance_sum += round.claimed_value / round.payment;
      ++dominance_rounds;
    }
  }
  report.frugality_ratio =
      report.welfare > 0.0 ? report.charges / report.welfare : 0.0;
  report.mean_dominance =
      dominance_rounds ? dominance_sum / static_cast<double>(dominance_rounds)
                       : 0.0;

  const std::vector<AgentOutcome> agents = agent_outcomes(result);
  std::vector<double> utilities;
  utilities.reserve(agents.size());
  for (const AgentOutcome& agent : agents) {
    utilities.push_back(agent.utility());
    report.total_surplus += agent.utility();
    if (agent.objects_won > 0) ++report.winning_agents;
  }

  // Gini over non-negative utilities (truthful second-price guarantees
  // non-negativity; clamp for strategic runs).
  for (double& u : utilities) u = std::max(0.0, u);
  std::sort(utilities.begin(), utilities.end());
  double cum_weighted = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < utilities.size(); ++i) {
    cum_weighted += static_cast<double>(i + 1) * utilities[i];
    total += utilities[i];
  }
  if (total > 0.0 && utilities.size() > 1) {
    const double n = static_cast<double>(utilities.size());
    report.utility_gini = (2.0 * cum_weighted) / (n * total) - (n + 1.0) / n;
  }
  return report;
}

}  // namespace agtram::core
