#include "runtime/distributed_mechanism.hpp"

#include "obs/obs.hpp"

namespace agtram::runtime {

DistributedRunReport run_distributed(const drp::Problem& problem) {
  const drp::ServerId centre = MessageBus::pick_centre(problem);
  MessageBus bus(problem, centre);

  core::AgtRamConfig mech;
  mech.report_mode = core::ReportMode::Incremental;
  mech.observer = &bus;

  double wall_seconds = 0.0;
  core::MechanismResult result = [&] {
    AGTRAM_OBS_SPAN("runtime.distributed_run", wall_seconds);
    return core::run_agt_ram(problem, mech);
  }();
  return DistributedRunReport{std::move(result), bus.stats(), centre,
                              wall_seconds};
}

}  // namespace agtram::runtime
