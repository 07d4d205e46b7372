#include "runtime/distributed_mechanism.hpp"

#include "common/timer.hpp"

namespace agtram::runtime {

DistributedRunReport run_distributed(const drp::Problem& problem,
                                     const DistributedConfig& config) {
  const drp::ServerId centre =
      config.centre >= 0 ? static_cast<drp::ServerId>(config.centre)
                         : MessageBus::pick_centre(problem);
  MessageBus bus(problem, centre);

  core::AgtRamConfig mech;
  mech.payment_rule = config.payment_rule;
  mech.report_mode = config.report_mode;
  mech.observer = &bus;

  common::Timer timer;
  core::MechanismResult result = core::run_agt_ram(problem, mech);

  DistributedRunReport report{std::move(result), bus.stats(), centre,
                              timer.seconds()};
  return report;
}

}  // namespace agtram::runtime
