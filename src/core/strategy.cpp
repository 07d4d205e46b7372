#include "core/strategy.hpp"

#include <algorithm>
#include <stdexcept>

namespace agtram::core {

drp::ServerId CollusionGroup::leader() const {
  if (members.empty()) {
    throw std::invalid_argument("collusion group needs at least one member");
  }
  return *std::min_element(members.begin(), members.end());
}

double StrategyProfile::multiplier_for(drp::ServerId who) const {
  double multiplier = 1.0;
  for (const Deviation& d : deviations) {
    if (d.agent == who) multiplier = d.multiplier();
  }
  for (const CollusionGroup& group : collusion_groups) {
    if (group.members.empty()) continue;
    const drp::ServerId leader = group.leader();
    for (const drp::ServerId member : group.members) {
      if (member == who && member != leader) multiplier = 0.0;
    }
  }
  return multiplier;
}

std::vector<drp::ServerId> StrategyProfile::deviating_agents() const {
  std::vector<drp::ServerId> agents;
  for (const Deviation& d : deviations) agents.push_back(d.agent);
  for (const CollusionGroup& group : collusion_groups) {
    for (const drp::ServerId member : group.members) agents.push_back(member);
  }
  std::sort(agents.begin(), agents.end());
  agents.erase(std::unique(agents.begin(), agents.end()), agents.end());
  std::erase_if(agents,
                [this](drp::ServerId who) { return !deviates(who); });
  return agents;
}

ReportStrategy StrategyProfile::compile(std::size_t server_count) const {
  if (empty()) return nullptr;
  std::vector<double> table(server_count, 1.0);
  bool identity = true;
  for (drp::ServerId who = 0; who < table.size(); ++who) {
    table[who] = multiplier_for(who);
    identity = identity && table[who] == 1.0;
  }
  if (identity) return nullptr;
  return [table = std::move(table)](drp::ServerId who, double value) {
    return who < table.size() ? value * table[who] : value;
  };
}

}  // namespace agtram::core
