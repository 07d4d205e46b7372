#include "core/agt_ram.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>

#include "common/thread_pool.hpp"
#include "obs/obs.hpp"

namespace agtram::core {

std::vector<AgentOutcome> agent_outcomes(const MechanismResult& result) {
  std::vector<AgentOutcome> outcomes(result.placement.server_count());
  for (const RoundRecord& round : result.rounds) {
    AgentOutcome& winner = outcomes[round.winner];
    winner.payments += round.payment;
    winner.true_value += round.true_value;
    winner.objects_won += 1;
  }
  return outcomes;
}

double MechanismResult::total_payments() const {
  double total = 0.0;
  for (const AgentOutcome& a : agent_outcomes(*this)) total += a.payments;
  return total;
}

namespace {

std::vector<drp::ServerId> every_server(const drp::Problem& problem) {
  std::vector<drp::ServerId> ids(problem.server_count());
  std::iota(ids.begin(), ids.end(), drp::ServerId{0});
  return ids;
}

// Builds one agent per id (ascending) on the shared pool.  Each agent prices
// its own list L_i against state nothing writes during construction.
// parallel_for runs ranges shorter than two grains, and nested calls (the
// tiled engine's shard solves), inline.  `source` is the Problem (cold
// start) or the warm-start placement.
constexpr std::size_t kAgentBuildGrain = 16;

template <typename Source>
std::vector<Agent> build_agents_on_pool(const Source& source,
                                        std::span<const drp::ServerId> ids) {
  std::vector<std::optional<Agent>> built(ids.size());
  common::ThreadPool::shared().parallel_for(
      0, ids.size(),
      [&](std::size_t first, std::size_t last) {
        for (std::size_t a = first; a < last; ++a) {
          built[a].emplace(source, ids[a]);
        }
      },
      kAgentBuildGrain);
  std::vector<Agent> agents;
  agents.reserve(ids.size());
  for (std::optional<Agent>& agent : built) agents.push_back(std::move(*agent));
  return agents;
}

// Checked invariants (replacing asserts that compiled out in Release): a
// fresh empty report can only mean the agent's candidate heap drained, and
// the centre must never allocate an infeasible candidate.  Both are cheap
// relative to a round, so they stay on in every build.
[[noreturn]] void throw_not_retired(drp::ServerId id) {
  throw std::logic_error(
      "AGT-RAM invariant violated: agent " + std::to_string(id) +
      " reported no candidate but its candidate heap is not drained");
}

void check_feasible(const drp::ReplicaPlacement& placement,
                    drp::ServerId winner, drp::ObjectIndex object) {
  if (!placement.can_replicate(winner, object)) {
    throw std::logic_error(
        "AGT-RAM invariant violated: winning candidate (server " +
        std::to_string(winner) + ", object " + std::to_string(object) +
        ") is not feasible");
  }
}

// Allocate to the winner, pay it, and record the round — common to both
// evaluation paths so the differential tests compare real shared state.
void allocate(MechanismResult& result, drp::ServerId winner,
              const Report& winning, double payment) {
  check_feasible(result.placement, winner, winning.object);
  result.placement.add_replica(winner, winning.object);
  result.rounds.push_back(RoundRecord{winner, winning.object,
                                      winning.claimed_value,
                                      winning.true_value, payment});
}

// ---------------------------------------------------------------- naive
// Full sweep: every live agent re-evaluates its heap every round.  Kept as
// the differential-testing oracle for the incremental path below.
MechanismResult run_rounds_naive(const AgtRamConfig& config,
                                 drp::ReplicaPlacement start,
                                 std::vector<Agent> agents) {
  MechanismResult result{std::move(start), {}};

  // LS: every participating server starts as a live agent; agents whose
  // candidate heap drains are retired (removed from LS in Figure 2, line
  // 18).  `live` holds indices into `agents`.
  std::vector<std::uint32_t> live = live_agents(agents);
  SealedBids bids;
  std::size_t round = 0;
  while (!live.empty()) {
    if (config.max_rounds != 0 && round >= config.max_rounds) {
      result.drained = false;
      break;
    }
    if (config.observer) config.observer->on_round_begin(round);
    AGTRAM_OBS_COUNT("agt_ram.rounds", 1);
    AGTRAM_OBS_COUNT("agt_ram.reports_fresh", live.size());

    // --- Every live agent reports; the centre drops the retired ones and
    // picks the dominant valuation (ties broken towards the lowest id).
    result.reports_computed += live.size();
    result.candidate_evaluations += poll_round(
        agents, live, result.placement, config.strategy, config.observer,
        bids);
    if (bids.empty()) break;

    const std::size_t winner_slot = bids.best();
    const drp::ServerId winner = bids.bidders[winner_slot];
    const Report& winning = bids.reports[winner_slot];
    const double payment =
        compute_payment(config.payment_rule, bids.claims, winner_slot);

    allocate(result, winner, winning, payment);
    if (config.observer) {
      config.observer->on_allocation(winner, winning.object, payment);
      // The bidders stay in LS; the agents that retired this round need
      // not hear about (w, k*).
      config.observer->on_broadcast(winner, winning.object, bids.bidders);
    }
    ++round;
  }
  return result;
}

// ----------------------------------------------------------- incremental
// Dirty-set evaluation: the centre caches every agent's standing report,
// re-polls only the live agents whose standing report names k* after
// allocating (winner, k*), and selects the winner from a lazy max-heap over
// the cached claimed values.
// Heap entries are invalidated by a per-agent epoch that bumps on every
// fresh report — values only ever decrease, so stale (higher) entries
// surface first and are discarded on sight.

struct HeapEntry {
  double value;
  drp::ServerId server;
  std::uint32_t epoch;
};

// Max-heap: higher value wins; ties towards the lowest server id, matching
// the naive linear scan's strict-greater sweep over ascending ids.
struct HeapCompare {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
    if (a.value != b.value) return a.value < b.value;
    return a.server > b.server;
  }
};

// Lazy max-heap over the standing claimed values.  Stale entries (epoch
// mismatch) are skimmed off on pop; when they outnumber the ~one-valid-
// entry-per-live-agent working set, the heap is compacted in place, so its
// size stays O(live) instead of growing by |dirty| every round.
class LazyBidHeap {
 public:
  void push(HeapEntry entry) {
    AGTRAM_OBS_COUNT("agt_ram.heap_pushes", 1);
    entries_.push_back(entry);
    std::push_heap(entries_.begin(), entries_.end(), HeapCompare{});
  }

  /// Drops stale entries once they dominate.  At most `live_count` entries
  /// are epoch-valid (one standing report per live agent), so this keeps
  /// the heap O(live); the caller invokes it once per round, and the O(n)
  /// rebuild amortises against the pushes that grew the heap.
  void maybe_compact(const std::vector<std::uint32_t>& epoch,
                     std::size_t live_count) {
    if (entries_.size() <= 2 * live_count + 64) return;
    AGTRAM_OBS_COUNT("agt_ram.heap_compactions", 1);
    std::erase_if(entries_, [&](const HeapEntry& e) {
      return e.epoch != epoch[e.server];
    });
    std::make_heap(entries_.begin(), entries_.end(), HeapCompare{});
  }

  /// Pops the best epoch-valid entry; false once none remain.
  bool pop_best(const std::vector<std::uint32_t>& epoch, HeapEntry& out) {
    while (!entries_.empty()) {
      std::pop_heap(entries_.begin(), entries_.end(), HeapCompare{});
      const HeapEntry top = entries_.back();
      entries_.pop_back();
      if (top.epoch != epoch[top.server]) {
        AGTRAM_OBS_COUNT("agt_ram.heap_stale_skipped", 1);
        continue;
      }
      AGTRAM_OBS_COUNT("agt_ram.heap_pops", 1);
      out = top;
      return true;
    }
    return false;
  }

  /// Best valid value without consuming it (0 when the heap is dry).
  double peek_best(const std::vector<std::uint32_t>& epoch) {
    while (!entries_.empty()) {
      if (entries_.front().epoch == epoch[entries_.front().server]) {
        return entries_.front().value;
      }
      AGTRAM_OBS_COUNT("agt_ram.heap_stale_skipped", 1);
      std::pop_heap(entries_.begin(), entries_.end(), HeapCompare{});
      entries_.pop_back();
    }
    return 0.0;
  }

 private:
  std::vector<HeapEntry> entries_;
};

MechanismResult run_rounds_incremental(const drp::Problem& problem,
                                       const AgtRamConfig& config,
                                       drp::ReplicaPlacement start,
                                       std::vector<Agent> agents) {
  const std::size_t m = problem.server_count();
  constexpr std::uint32_t kNoAgent = static_cast<std::uint32_t>(-1);

  MechanismResult result{std::move(start), {}};

  // Participants may be a subset of the servers: map id -> agent index.
  std::vector<std::uint32_t> agent_of(m, kNoAgent);
  for (std::uint32_t a = 0; a < agents.size(); ++a) {
    agent_of[agents[a].id()] = a;
  }

  std::vector<Report> reports(m);        // standing reports, by server id
  std::vector<std::uint32_t> epoch(m, 0);
  std::vector<char> live_flag(m, 0);

  // `live` (ascending ids — agents are constructed sorted) backs the
  // observer contract: the observer sees every live agent's standing report
  // each round, so audits remain whole-profile even though only the dirty
  // set is recomputed.  The first round polls everyone.
  std::vector<drp::ServerId> live;
  live.reserve(agents.size());
  for (const Agent& agent : agents) {
    if (agent.retired()) continue;
    live.push_back(agent.id());
    live_flag[agent.id()] = 1;
  }
  std::vector<drp::ServerId> dirty = live;

  LazyBidHeap heap;

  std::size_t round = 0;
  // After every allocation the winner is dirty again (its report named k*),
  // so the dirty set is empty only once the mechanism has terminated.
  while (!dirty.empty()) {
    if (config.max_rounds != 0 && round >= config.max_rounds) {
      result.drained = false;
      break;
    }
    if (config.observer) config.observer->on_round_begin(round);
    AGTRAM_OBS_COUNT("agt_ram.rounds", 1);
    AGTRAM_OBS_COUNT("agt_ram.reports_fresh", dirty.size());
    AGTRAM_OBS_COUNT("agt_ram.reports_cached", live.size() - dirty.size());

    // --- Only the dirty set reports afresh.
    for (const drp::ServerId i : dirty) {
      reports[i] =
          agents[agent_of[i]].make_report(result.placement, config.strategy);
    }

    // --- Centre: fold the fresh reports into the standing cache.
    bool retired_any = false;
    for (const drp::ServerId i : dirty) {
      const Report& r = reports[i];
      result.candidate_evaluations += r.evaluations;
      ++result.reports_computed;
      ++epoch[i];
      if (r.has_candidate) {
        heap.push(HeapEntry{r.claimed_value, i, epoch[i]});
      } else {
        if (!agents[agent_of[i]].retired()) throw_not_retired(i);
        live_flag[i] = 0;
        retired_any = true;
      }
    }

    if (config.observer) {
      // Includes agents retiring this round: their empty fresh report is the
      // "nothing for me" wire message that removes them from LS.
      std::size_t d = 0;
      for (const drp::ServerId i : live) {
        while (d < dirty.size() && dirty[d] < i) ++d;
        const bool fresh = d < dirty.size() && dirty[d] == i;
        config.observer->on_report(i, reports[i], fresh);
      }
    }
    if (retired_any) {
      live.erase(std::remove_if(
                     live.begin(), live.end(),
                     [&](drp::ServerId i) { return live_flag[i] == 0; }),
                 live.end());
    }
    heap.maybe_compact(epoch, live.size());

    // --- Winner: the best epoch-valid entry is the argmax over the
    // standing reports (stale, necessarily higher, entries are skimmed off
    // on the way down).
    HeapEntry winner_entry{0.0, 0, 0};
    if (!heap.pop_best(epoch, winner_entry)) break;

    // Second-highest standing value (the Vickrey charge): peek the next
    // valid entry without consuming it.  The epoch guarantees at most one
    // valid entry per agent, so this is never the winner's own report.
    const double second = heap.peek_best(epoch);

    const drp::ServerId winner = winner_entry.server;
    const Report& winning = reports[winner];
    const double standing[2] = {winning.claimed_value, second};
    const double payment = compute_payment(
        config.payment_rule, std::span<const double>(standing, 2), 0);

    allocate(result, winner, winning, payment);

    // --- Next round's dirty set: the live agents whose standing report
    // names k*.  A report is the argmax of current value over the agent's
    // feasible candidates, so it is a function of the placement alone; the
    // allocation lowers only v(i, k*) for a reader i ≠ winner and leaves its
    // capacity alone, so a report naming another object still stands.  The
    // winner's report names k*, so it is re-polled too.  readers(k*) holds
    // every such agent (a candidate requires read demand) in ascending id.
    dirty.clear();
    for (const drp::ServerId i : problem.access.readers(winning.object)) {
      if (live_flag[i] != 0 && reports[i].object == winning.object) {
        dirty.push_back(i);
      }
    }
    if (config.observer) {
      config.observer->on_allocation(winner, winning.object, payment);
      // Targeted multicast: only the dirty set needs to hear about (w, k*);
      // the centre answers for everyone else out of its report cache.
      config.observer->on_broadcast(winner, winning.object, dirty);
    }
    ++round;
  }
  return result;
}

MechanismResult run_rounds(const drp::Problem& problem,
                           const AgtRamConfig& config,
                           drp::ReplicaPlacement start,
                           std::vector<Agent> agents) {
  AGTRAM_OBS_SPAN("agt_ram.run");
  return config.report_mode == ReportMode::Incremental
             ? run_rounds_incremental(problem, config, std::move(start),
                                      std::move(agents))
             : run_rounds_naive(config, std::move(start), std::move(agents));
}

}  // namespace

std::size_t SealedBids::best() const {
  std::size_t winner = 0;
  for (std::size_t s = 1; s < claims.size(); ++s) {
    if (claims[s] > claims[winner]) winner = s;
  }
  return winner;
}

std::vector<Agent> build_agents(const drp::Problem& problem) {
  return build_agents_on_pool(problem, every_server(problem));
}

std::vector<Agent> build_agents(const drp::ReplicaPlacement& start,
                                std::span<const drp::ServerId> ids) {
  return build_agents_on_pool(start, ids);
}

std::vector<std::uint32_t> live_agents(const std::vector<Agent>& agents) {
  std::vector<std::uint32_t> live;
  live.reserve(agents.size());
  for (std::uint32_t a = 0; a < agents.size(); ++a) {
    if (!agents[a].retired()) live.push_back(a);
  }
  return live;
}

std::uint64_t poll_round(std::vector<Agent>& agents,
                         std::vector<std::uint32_t>& live,
                         const drp::ReplicaPlacement& placement,
                         const ReportStrategy& strategy,
                         MechanismObserver* observer, SealedBids& bids) {
  bids.clear();
  std::uint64_t evaluations = 0;
  std::size_t kept = 0;
  for (const std::uint32_t a : live) {
    Agent& agent = agents[a];
    const Report report = agent.make_report(placement, strategy);
    evaluations += report.evaluations;
    if (observer) observer->on_report(agent.id(), report, /*fresh=*/true);
    if (report.has_candidate) {
      bids.add(agent.id(), report);
      live[kept++] = a;
    } else if (!agent.retired()) {
      // No candidate this round can only mean the heap drained.
      throw_not_retired(agent.id());
    }
  }
  live.resize(kept);
  return evaluations;
}

MechanismResult run_agt_ram(const drp::Problem& problem,
                            const AgtRamConfig& config) {
  return run_rounds(problem, config, drp::ReplicaPlacement(problem),
                    build_agents(problem));
}

MechanismResult run_agt_ram_from(
    const drp::Problem& problem, const AgtRamConfig& config,
    drp::ReplicaPlacement start,
    const std::vector<drp::ServerId>* participants) {
  std::vector<drp::ServerId> ids =
      participants ? *participants : every_server(problem);
  std::sort(ids.begin(), ids.end());
  std::vector<Agent> agents = build_agents(start, ids);
  return run_rounds(problem, config, std::move(start), std::move(agents));
}

}  // namespace agtram::core
