#include "src/core/factory.hpp"

#include <algorithm>
#include <stdexcept>

namespace abp::core {

std::string controller_type_name(ControllerType type) {
  switch (type) {
    case ControllerType::UtilBp:
      return "UTIL-BP";
    case ControllerType::CapBp:
      return "CAP-BP";
    case ControllerType::OriginalBp:
      return "ORIG-BP";
    case ControllerType::FixedTime:
      return "FIXED-TIME";
  }
  return "unknown";
}

ControllerPtr make_controller(const ControllerSpec& spec, IntersectionPlan plan,
                              double pressure_capacity) {
  switch (spec.type) {
    case ControllerType::UtilBp:
      return std::make_unique<UtilBpController>(plan, spec.util, pressure_capacity);
    case ControllerType::CapBp:
      return std::make_unique<FixedSlotBpController>(
          std::move(plan), spec.fixed_slot, FixedSlotRule::CapacityAware, pressure_capacity);
    case ControllerType::OriginalBp:
      return std::make_unique<FixedSlotBpController>(
          std::move(plan), spec.fixed_slot, FixedSlotRule::Original, pressure_capacity);
    case ControllerType::FixedTime:
      return std::make_unique<FixedTimeController>(std::move(plan), spec.fixed_time);
  }
  throw std::invalid_argument("unknown controller type");
}

double max_road_capacity(const net::Network& network) {
  double cap = 0.0;
  for (const net::Road& road : network.roads()) {
    cap = std::max(cap, static_cast<double>(road.capacity));
  }
  return cap;
}

std::vector<ControllerPtr> make_controllers(const ControllerSpec& spec,
                                            const net::Network& network) {
  std::vector<ControllerPtr> controllers;
  controllers.reserve(network.intersections().size());
  const double cap = max_road_capacity(network);
  for (const net::Intersection& node : network.intersections()) {
    controllers.push_back(make_controller(spec, make_plan(network, node), cap));
  }
  return controllers;
}

}  // namespace abp::core
