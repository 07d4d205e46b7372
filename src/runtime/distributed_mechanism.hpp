// The semi-distributed execution of AGT-RAM: core::run_agt_ram with a
// MessageBus observing every report, allocation and broadcast, so the
// protocol traffic is accounted and timed (the default ProtocolModel).  The
// agents price their candidate lists concurrently on the shared thread pool
// when they are built (Figure 2's PARFOR); the allocation is exactly
// run_agt_ram's, which tests assert.
#pragma once

#include "core/agt_ram.hpp"
#include "runtime/message_bus.hpp"

namespace agtram::runtime {

struct DistributedRunReport {
  core::MechanismResult result;
  MessageStats messages;
  drp::ServerId centre;
  double wall_seconds = 0.0;  ///< the runtime.distributed_run span's reading
};

/// Runs the mechanism with full message accounting: second-price payments,
/// the central body at the metric medoid (MessageBus::pick_centre), and the
/// dirty-set protocol (core::ReportMode::Incremental) — the centre caches
/// standing reports, re-polls only the agents whose standing bid the last
/// allocation made stale, and multicasts OMAX to that set, with the allocation
/// byte-identical to the paper's every-agent-every-round sweep.
DistributedRunReport run_distributed(const drp::Problem& problem);

}  // namespace agtram::runtime
