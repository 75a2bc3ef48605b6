// Config-driven construction of signal controllers.
//
// Scenario code (examples, benches, tests) describes the policy for a run
// with a ControllerSpec and stamps one controller instance per intersection
// from it — each junction needs its own instance because controllers are
// stateful and decentralized.
#pragma once

#include <string>

#include "src/core/bp_fixed.hpp"
#include "src/core/bp_util.hpp"
#include "src/core/controller.hpp"
#include "src/core/fixed_time.hpp"
#include "src/net/network.hpp"

namespace abp::core {

enum class ControllerType { UtilBp, CapBp, OriginalBp, FixedTime };

[[nodiscard]] std::string controller_type_name(ControllerType type);

struct ControllerSpec {
  ControllerType type = ControllerType::UtilBp;
  UtilBpConfig util;
  FixedSlotBpConfig fixed_slot;
  FixedTimeConfig fixed_time;
};

// Builds a controller of the requested type for one junction plan. The type
// fixes the fixed-slot rule (CAP-BP or ORIG-BP); `pressure_capacity` is the W
// a Normalized pressure_kind divides by (callers with a network pass
// max_road_capacity, as make_controllers does).
[[nodiscard]] ControllerPtr make_controller(const ControllerSpec& spec, IntersectionPlan plan,
                                            double pressure_capacity = kDefaultPressureCapacity);

// Largest road capacity of the network: the W the Normalized pressure preset
// divides by, mirroring Eq. (7)'s W* convention.
[[nodiscard]] double max_road_capacity(const net::Network& network);

// Convenience: a controller for each intersection of the network, indexed by
// IntersectionId::index().
[[nodiscard]] std::vector<ControllerPtr> make_controllers(const ControllerSpec& spec,
                                                          const net::Network& network);

}  // namespace abp::core
