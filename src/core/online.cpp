#include "core/online.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/timer.hpp"
#include "obs/obs.hpp"

namespace agtram::core {

namespace {

std::string describe(const char* what, std::uint64_t a, std::uint64_t b,
                     const char* detail) {
  std::ostringstream os;
  os << what << " differ at " << detail << ": " << a << " vs " << b;
  return os.str();
}

}  // namespace

bool placements_identical(const drp::ReplicaPlacement& a,
                          const drp::ReplicaPlacement& b, std::string* why) {
  const auto fail = [&](std::string message) {
    if (why) *why = std::move(message);
    return false;
  };
  // The placements may live on distinct (but equal) Problem copies — two
  // engines fed the same instance — so compare shapes, not pointers.
  const drp::Problem& p = a.problem();
  const std::size_t m = p.server_count();
  const std::size_t n = p.object_count();
  if (m != b.problem().server_count() || n != b.problem().object_count()) {
    return fail("placements have different instance shapes");
  }
  for (drp::ServerId i = 0; i < m; ++i) {
    if (a.used_capacity(i) != b.used_capacity(i)) {
      return fail(describe("used capacities", a.used_capacity(i),
                           b.used_capacity(i),
                           ("server " + std::to_string(i)).c_str()));
    }
  }
  for (drp::ObjectIndex k = 0; k < n; ++k) {
    const auto ra = a.replicators(k);
    const auto rb = b.replicators(k);
    if (!std::equal(ra.begin(), ra.end(), rb.begin(), rb.end())) {
      return fail("replicator sets differ at object " + std::to_string(k));
    }
    const auto da = a.nn_row(k);
    const auto db = b.nn_row(k);
    if (!std::equal(da.begin(), da.end(), db.begin(), db.end())) {
      return fail("NN distance rows differ at object " + std::to_string(k));
    }
    const auto na = a.nn_node_row(k);
    const auto nb = b.nn_node_row(k);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) {
      return fail("NN node rows differ at object " + std::to_string(k));
    }
  }
  return true;
}

OnlineMechanism::OnlineMechanism(drp::Problem problem, OnlineConfig config)
    : config_(std::move(config)),
      problem_(std::make_unique<drp::Problem>(std::move(problem))) {
  problem_->validate();
  const std::size_t m = problem_->server_count();
  const std::size_t n = problem_->object_count();
  nominal_capacity_ = problem_->capacity;
  primary_load_ = problem_->primary_load();
  failed_.assign(m, 0);
  deleted_.assign(n, 0);
  stash_.resize(n);
  dirty_flag_.assign(m, 0);
  demand_touched_flag_.assign(n, 0);
  changed_flag_.assign(n, 0);
  agents_.resize(m);

  AGTRAM_OBS_SPAN("online.initial_solve");
  MechanismResult initial = run_agt_ram(*problem_, config_.mechanism);
  if (!initial.drained) {
    throw std::invalid_argument(
        "OnlineMechanism: initial solve hit max_rounds — the engine needs a "
        "quiescent starting placement");
  }
  initial_rounds_ = initial.rounds.size();
  accumulate(initial);
  eval_.emplace(std::move(initial.placement));
}

void OnlineMechanism::mark_dirty(drp::ServerId i) {
  if (dirty_flag_[i] == 0) {
    dirty_flag_[i] = 1;
    dirty_.push_back(i);
  }
}

void OnlineMechanism::mark_demand_touched(drp::ObjectIndex k) {
  if (demand_touched_flag_[k] == 0) {
    demand_touched_flag_[k] = 1;
    demand_touched_.push_back(k);
  }
}

void OnlineMechanism::mark_changed(drp::ObjectIndex k) {
  if (changed_flag_[k] == 0) {
    changed_flag_[k] = 1;
    changed_.push_back(k);
  }
}

void OnlineMechanism::drop_replica(drp::ServerId i, drp::ObjectIndex k) {
  eval_->remove_replica(i, k);
  mark_changed(k);
}

void OnlineMechanism::refresh_demand_touched() {
  eval_->refresh_after_demand_change(demand_touched_);
}

void OnlineMechanism::clear_demand_touched() {
  for (const drp::ObjectIndex k : demand_touched_) demand_touched_flag_[k] = 0;
  demand_touched_.clear();
}

void OnlineMechanism::accumulate(const MechanismResult& result) {
  for (std::size_t i = 0; i < result.agents.size(); ++i) {
    const AgentOutcome& o = result.agents[i];
    if (o.objects_won == 0 && o.payments == 0.0 && o.true_value == 0.0) {
      continue;
    }
    agents_[i].payments += o.payments;
    agents_[i].true_value += o.true_value;
    agents_[i].objects_won += o.objects_won;
  }
  rounds_total_ += result.rounds.size();
}

void OnlineMechanism::apply_one(const OnlineEvent& event, BatchOutcome& out) {
  const drp::AccessMatrix& access = problem_->access;

  if (const auto* d = std::get_if<DemandDelta>(&event)) {
    if (deleted_[d->object]) {
      throw std::invalid_argument(
          "OnlineMechanism: demand delta on deleted object " +
          std::to_string(d->object));
    }
    problem_->access.apply_demand_delta(d->server, d->object, d->delta_reads,
                                        d->delta_writes);
    mark_dirty(d->server);
    mark_demand_touched(d->object);  // re-priced once, after the event loop
    if (d->delta_writes != 0) {
      // w_total(k) enters every reader's broadcast price, so a write delta
      // can move any reader's valuation (in either direction).
      for (const drp::ServerId i : access.readers(d->object)) mark_dirty(i);
    }
    return;
  }

  if (const auto* l = std::get_if<ReplicaLoss>(&event)) {
    if (problem_->primary[l->object] == l->server) {
      throw std::invalid_argument(
          "OnlineMechanism: primary copies are immovable (object " +
          std::to_string(l->object) + ")");
    }
    if (!eval_->placement().is_replicator(l->server, l->object)) {
      throw std::invalid_argument(
          "OnlineMechanism: replica loss on (server " +
          std::to_string(l->server) + ", object " + std::to_string(l->object) +
          ") which holds no replica");
    }
    drop_replica(l->server, l->object);
    ++out.replicas_lost;
    AGTRAM_OBS_COUNT("online.replicas_lost", 1);
    mark_dirty(l->server);  // freed capacity: retired-infeasible bids revive
    for (const drp::ServerId i : access.readers(l->object)) mark_dirty(i);
    return;
  }

  if (const auto* f = std::get_if<ServerFail>(&event)) {
    if (failed_[f->server]) {
      throw std::invalid_argument("OnlineMechanism: server " +
                                  std::to_string(f->server) +
                                  " is already failed");
    }
    // Drop every non-primary replica the server holds; each loss lifts NN
    // distances for that object's readers.  Agents bid only on objects in
    // their own demand row, and cells are structural (they survive a drop
    // to zero demand), so every replica the engine placed on the server sits
    // on a cell of server_objects(server): walking that row finds them all.
    for (const drp::ServerSideAccess& cell : access.server_objects(f->server)) {
      const drp::ObjectIndex k = cell.object;
      if (problem_->primary[k] == f->server ||
          !eval_->placement().is_replicator(f->server, k)) {
        continue;
      }
      drop_replica(f->server, k);
      ++out.replicas_lost;
      AGTRAM_OBS_COUNT("online.replicas_lost", 1);
      for (const drp::ServerId i : access.readers(k)) mark_dirty(i);
    }
    // Checked invariant: only the immovable primaries may survive.  A replica
    // off its holder's row would break the walk above silently.
    if (eval_->placement().used_capacity(f->server) !=
        primary_load_[f->server]) {
      throw std::logic_error(
          "OnlineMechanism invariant violated: server " +
          std::to_string(f->server) + " holds " +
          std::to_string(eval_->placement().used_capacity(f->server)) +
          " units after its fail walk, but its primaries weigh " +
          std::to_string(primary_load_[f->server]));
    }
    // Clamp capacity to the surviving load (the immovable primaries): the
    // failed server can win nothing.  Capacity loss is monotone with
    // retirement, so the server itself needs no repolling.
    problem_->capacity[f->server] = eval_->placement().used_capacity(f->server);
    failed_[f->server] = 1;
    return;
  }

  if (const auto* j = std::get_if<ServerJoin>(&event)) {
    if (!failed_[j->server]) return;  // joining a live server: no-op
    problem_->capacity[j->server] = nominal_capacity_[j->server];
    failed_[j->server] = 0;
    mark_dirty(j->server);  // restored capacity may make old bids feasible
    return;
  }

  if (const auto* del = std::get_if<ObjectDelete>(&event)) {
    const drp::ObjectIndex k = del->object;
    if (deleted_[k]) {
      throw std::invalid_argument("OnlineMechanism: object " +
                                  std::to_string(k) + " is already deleted");
    }
    // Stash and zero the demand row (values only; structure is immutable).
    const auto row = access.accessors(k);
    for (std::size_t slot = 0; slot < row.size(); ++slot) {
      const drp::Access cell = row[slot];  // copy before mutating in place
      if (cell.reads == 0 && cell.writes == 0) continue;
      stash_[k].push_back(StashCell{cell.server, cell.reads, cell.writes});
      problem_->access.apply_demand_delta(
          cell.server, k, -static_cast<std::int64_t>(cell.reads),
          -static_cast<std::int64_t>(cell.writes));
    }
    // Drop the extra replicas; the spans invalidate on mutation, so copy.
    const auto reps = eval_->placement().replicators(k);
    std::vector<drp::ServerId> extras;
    for (const drp::ServerId r : reps) {
      if (r != problem_->primary[k]) extras.push_back(r);
    }
    for (const drp::ServerId r : extras) {
      drop_replica(r, k);
      ++out.replicas_lost;
      AGTRAM_OBS_COUNT("online.replicas_lost", 1);
      mark_dirty(r);  // freed capacity
    }
    eval_->refresh_after_demand_change(k);
    deleted_[k] = 1;
    // Readers of k are *not* dirtied: their valuation for k only fell to
    // zero, and retirement is monotone under value decreases.
    return;
  }

  const auto& create = std::get<ObjectCreate>(event);
  const drp::ObjectIndex k = create.object;
  if (!deleted_[k]) {
    throw std::invalid_argument(
        "OnlineMechanism: object " + std::to_string(k) +
        " is active; ObjectCreate re-activates a deleted object");
  }
  for (const StashCell& cell : stash_[k]) {
    problem_->access.apply_demand_delta(cell.server, k,
                                        static_cast<std::int64_t>(cell.reads),
                                        static_cast<std::int64_t>(cell.writes));
  }
  stash_[k].clear();
  deleted_[k] = 0;
  mark_demand_touched(k);  // re-priced after the event loop
  for (const drp::ServerId i : access.readers(k)) mark_dirty(i);
}

BatchOutcome OnlineMechanism::apply_events(std::span<const OnlineEvent> batch) {
  AGTRAM_OBS_SPAN("online.apply_batch");
  BatchOutcome out;
  out.events_applied = batch.size();
  events_ += batch.size();
  AGTRAM_OBS_COUNT("online.batches", 1);
  AGTRAM_OBS_COUNT("online.events", batch.size());

  dirty_.clear();
  // The previous batch's evictions, or a batch that threw, left agents to
  // repair; fold them into this batch before the events add theirs.
  for (const drp::ServerId i : carryover_) mark_dirty(i);
  carryover_.clear();

  common::Timer stage;
  try {
    for (const OnlineEvent& event : batch) apply_one(event, out);
  } catch (...) {
    // The events before the rejected one stay applied.  Leave them for the
    // next batch to repair: exact caches, their agents carried over, and
    // both flag arrays clear for the next batch's marks.
    refresh_demand_touched();
    carryover_ = dirty_;
    for (const drp::ServerId i : dirty_) dirty_flag_[i] = 0;
    clear_demand_touched();
    throw;
  }
  refresh_demand_touched();
  out.events_seconds = stage.seconds();

  out.dirty_agents = dirty_.size();
  out.reports_saved = problem_->server_count() - dirty_.size();
  AGTRAM_OBS_COUNT("online.dirty_agents", dirty_.size());
  AGTRAM_OBS_COUNT("online.reports_saved", out.reports_saved);

  // The oracle re-solves from the pre-repair placement with everyone
  // polled, so snapshot it before the repair run consumes it.
  std::optional<drp::ReplicaPlacement> oracle_start;
  if (config_.differential_oracle) oracle_start.emplace(eval_->placement());

  std::vector<RoundRecord> repair_rounds;
  stage.reset();
  if (!dirty_.empty()) {
    AGTRAM_OBS_SPAN("online.repair");
    AgtRamConfig mech = config_.mechanism;
    mech.max_rounds = 0;  // a repair drains its dirty set
    MechanismResult repair = run_agt_ram_from(
        *problem_, mech, eval_->detach_placement(), &dirty_);

    std::vector<drp::ObjectIndex> touched;
    touched.reserve(repair.rounds.size());
    for (const RoundRecord& r : repair.rounds) {
      touched.push_back(r.object);
      mark_changed(r.object);
    }
    eval_->attach_placement(std::move(repair.placement), touched);

    accumulate(repair);
    out.repair_rounds = repair.rounds.size();
    out.reports_computed = repair.reports_computed;
    out.candidate_evaluations = repair.candidate_evaluations;
    for (const RoundRecord& r : repair.rounds) out.payments += r.payment;
    AGTRAM_OBS_COUNT("online.repair_rounds", repair.rounds.size());
    repair_rounds = std::move(repair.rounds);
  }
  for (const drp::ServerId i : dirty_) dirty_flag_[i] = 0;
  out.repair_seconds = stage.seconds();

  if (config_.differential_oracle) {
    run_oracle(std::move(*oracle_start), repair_rounds);
    out.oracle_checked = true;
    AGTRAM_OBS_COUNT("online.oracle_checks", 1);
  }

  // Bounded eviction pass over the objects whose demand this batch touched
  // (the list is per batch).
  if (config_.eviction_limit > 0 && !demand_touched_.empty()) {
    stage.reset();
    run_eviction(out);
    out.eviction_seconds = stage.seconds();
  }
  clear_demand_touched();

  // The list carries over a thrown batch's drops (the throw path leaves it
  // alone), so patching from the previous outcome never misses a change.
  std::sort(changed_.begin(), changed_.end());
  for (const drp::ObjectIndex k : changed_) changed_flag_[k] = 0;
  out.changed_objects = std::move(changed_);
  changed_.clear();

  out.total_cost = eval_->total();
  return out;
}

void OnlineMechanism::run_eviction(BatchOutcome& out) {
  AGTRAM_OBS_SPAN("online.evict");
  std::size_t budget = config_.eviction_limit;
  const std::size_t carryover_mark = carryover_.size();
  for (const drp::ObjectIndex k : demand_touched_) {
    if (budget == 0) break;
    if (deleted_[k]) continue;
    const drp::ServerId primary = problem_->primary[k];
    while (budget > 0) {
      // Most negative drop benefit among k's non-primary replicators; the
      // replicator span invalidates on mutation, so re-scan per drop.
      drp::ServerId victim = 0;
      double best = 0.0;
      bool found = false;
      for (const drp::ServerId r : eval_->placement().replicators(k)) {
        if (r == primary) continue;
        const double delta = eval_->delta_of_drop(r, k);
        if (delta < best) {
          best = delta;
          victim = r;
          found = true;
        }
      }
      if (!found) break;  // every remaining replica still pays its way
      drop_replica(victim, k);
      --budget;
      ++out.replicas_evicted;
      out.eviction_cost_delta += best;
      AGTRAM_OBS_COUNT("online.replicas_evicted", 1);
      // A drop only *raises* valuations, and only for object k's readers
      // (their NN distance may grow back) and the victim (freed capacity
      // may revive any of its retired-infeasible bids).  Queue exactly
      // those agents for the next batch's repair so the monotone-
      // retirement identity argument keeps holding batch to batch.
      carryover_.push_back(victim);
      for (const drp::ServerId i : problem_->access.readers(k)) {
        carryover_.push_back(i);
      }
    }
  }
  if (carryover_.size() > carryover_mark) {
    std::sort(carryover_.begin(), carryover_.end());
    carryover_.erase(std::unique(carryover_.begin(), carryover_.end()),
                     carryover_.end());
  }
}

void OnlineMechanism::run_oracle(drp::ReplicaPlacement pre_repair,
                                 const std::vector<RoundRecord>& repair_rounds) {
  AGTRAM_OBS_SPAN("online.oracle");
  MechanismResult oracle = run_agt_ram_from(*problem_, config_.mechanism,
                                            std::move(pre_repair), nullptr);
  if (!oracle.drained) {
    throw std::logic_error(
        "OnlineMechanism oracle: full-participation re-solve hit max_rounds");
  }
  if (oracle.rounds.size() != repair_rounds.size()) {
    throw std::logic_error(
        "OnlineMechanism oracle mismatch: repair made " +
        std::to_string(repair_rounds.size()) + " allocations, oracle made " +
        std::to_string(oracle.rounds.size()));
  }
  for (std::size_t r = 0; r < repair_rounds.size(); ++r) {
    const RoundRecord& a = repair_rounds[r];
    const RoundRecord& b = oracle.rounds[r];
    if (a.winner != b.winner || a.object != b.object ||
        a.claimed_value != b.claimed_value || a.true_value != b.true_value ||
        a.payment != b.payment) {
      throw std::logic_error(
          "OnlineMechanism oracle mismatch at allocation " +
          std::to_string(r) + ": repair (server " + std::to_string(a.winner) +
          ", object " + std::to_string(a.object) + ", payment " +
          std::to_string(a.payment) + ") vs oracle (server " +
          std::to_string(b.winner) + ", object " + std::to_string(b.object) +
          ", payment " + std::to_string(b.payment) + ")");
    }
  }
  std::string why;
  if (!placements_identical(oracle.placement, eval_->placement(), &why)) {
    throw std::logic_error("OnlineMechanism oracle mismatch: " + why);
  }
}

}  // namespace agtram::core
