#include "core/agent.hpp"

#include <cassert>
#include <utility>

namespace agtram::core {

Agent::Agent(const drp::Problem& problem, drp::ServerId id)
    : problem_(&problem), id_(id) {
  // L_i: objects with read demand at i, excluding i's own primaries.  The
  // initial valuation uses the primaries-only placement; a fresh placement
  // is cheap enough to construct once per mechanism run, so we compute the
  // upper-bound value directly from the problem instead.
  std::vector<Entry> entries;
  for (const drp::ServerSideAccess& access :
       problem.access.server_objects(id)) {
    if (access.reads == 0) continue;  // pure writers never benefit
    if (problem.primary[access.object] == id) continue;
    const double o = static_cast<double>(problem.object_units[access.object]);
    const double read_savings =
        static_cast<double>(access.reads) * o *
        static_cast<double>(problem.distance(id, problem.primary[access.object]));
    const double broadcast_price =
        (static_cast<double>(problem.access.total_writes(access.object)) -
         static_cast<double>(access.writes)) *
        o *
        static_cast<double>(problem.distance(problem.primary[access.object], id));
    const double initial_value = read_savings - broadcast_price;
    if (initial_value > 0.0) {
      entries.push_back(Entry{initial_value, access.object, access.slot});
    }
  }
  heap_ = std::priority_queue<Entry>(std::less<Entry>{}, std::move(entries));
}

Agent::Agent(const drp::ReplicaPlacement& placement, drp::ServerId id)
    : problem_(&placement.problem()), id_(id) {
  std::vector<Entry> entries;
  for (const drp::ServerSideAccess& access :
       problem_->access.server_objects(id)) {
    if (access.reads == 0) continue;
    if (problem_->primary[access.object] == id) continue;
    if (placement.is_replicator(id, access.object)) continue;
    const double value = drp::CostModel::agent_benefit_at(
        placement, id, access.object, access.slot);
    if (value > 0.0) entries.push_back(Entry{value, access.object, access.slot});
  }
  heap_ = std::priority_queue<Entry>(std::less<Entry>{}, std::move(entries));
}

Report Agent::make_report(const drp::ReplicaPlacement& placement,
                          const ReportStrategy& strategy) {
  Report report;
  const auto fill = [&](drp::ObjectIndex object, double value) {
    report.object = object;
    report.true_value = value;
    report.claimed_value = strategy ? strategy(id_, value) : value;
    report.has_candidate = true;
  };
  while (!heap_.empty()) {
    const Entry top = heap_.top();
    ++report.evaluations;
    // Monotone discards: already ours, or will never fit again.
    if (placement.is_replicator(id_, top.object) ||
        placement.free_capacity(id_) < problem_->object_units[top.object]) {
      heap_.pop();
      continue;
    }
    const double current =
        drp::CostModel::agent_benefit_at(placement, id_, top.object, top.slot);
    assert(current <= top.value * (1.0 + 1e-9));
    if (current == top.value) {
      // Untouched since it was last priced (the common case when only some
      // *other* object gained a replica): report without re-heapifying.
      fill(top.object, current);
      return report;
    }
    heap_.pop();
    if (current <= 0.0) continue;
    heap_.push(Entry{current, top.object, top.slot});
    if (heap_.top().value == current && heap_.top().object == top.object) {
      // Decayed but still dominant: report it and keep it queued for the
      // next round (only the winner actually replicates).
      fill(top.object, current);
      return report;
    }
    // Decayed below another candidate: re-sorted, retry from the new top.
  }
  return report;
}

}  // namespace agtram::core
