#include "runtime/distributed_mechanism.hpp"

#include "common/timer.hpp"

namespace agtram::runtime {

DistributedRunReport run_distributed(const drp::Problem& problem) {
  const drp::ServerId centre = MessageBus::pick_centre(problem);
  MessageBus bus(problem, centre);

  core::AgtRamConfig mech;
  mech.report_mode = core::ReportMode::Incremental;
  mech.observer = &bus;

  common::Timer timer;
  core::MechanismResult result = core::run_agt_ram(problem, mech);

  DistributedRunReport report{std::move(result), bus.stats(), centre,
                              timer.seconds()};
  return report;
}

}  // namespace agtram::runtime
