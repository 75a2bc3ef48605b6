#include "src/sim/run_setup.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/core/factory.hpp"
#include "src/core/fault_controller.hpp"
#include "src/microsim/micro_sim.hpp"
#include "src/net/validation.hpp"
#include "src/queuesim/queue_sim.hpp"

namespace abp::sim {
namespace {

// The effective per-junction ControllerSpec: the run-wide spec, unless a
// controller override names the junction (last matching override wins).
const core::ControllerSpec& effective_spec(const scenario::ScenarioConfig& config,
                                           const net::Network& network,
                                           IntersectionId node) {
  const core::ControllerSpec* spec = &config.controller;
  for (const scenario::ControllerOverride& o : config.controller_overrides) {
    const IntersectionId target =
        resolve_node(network, o.node.row, o.node.col, "controller override");
    if (target == node) spec = &o.spec;
  }
  return *spec;
}

// The incident-tuned variant of a spec, for AdaptiveController's upward-shift
// mode (docs/CHANGEPOINT.md, "Re-tuning"). The shared idea: under a detected
// overload regime, hold phases longer — every transition inserts an amber
// interval that serves nobody, and amber loss is pure waste precisely when
// every approach is saturated. Returns nullopt when the policy has no useful
// variant (classical fixed-time; UTIL-BP already holding maximally):
// adaptation then degrades to reset-on-detection.
std::optional<core::ControllerSpec> retuned_spec(const core::ControllerSpec& spec) {
  core::ControllerSpec tuned = spec;
  switch (spec.type) {
    case core::ControllerType::UtilBp:
      // G* = 0 removes the sentinel's early-switch pressure: phases hold
      // until the backlog comparison itself flips, trading responsiveness
      // for fewer amber insertions.
      if (spec.util.gstar_policy == core::GStarPolicy::Zero) return std::nullopt;
      tuned.util.gstar_policy = core::GStarPolicy::Zero;
      return tuned;
    case core::ControllerType::CapBp:
    case core::ControllerType::OriginalBp:
      // Double the slot period: half the decision (and amber) rate. Also
      // force the work-conserving fallback — idling a whole doubled slot
      // would be twice as costly.
      tuned.fixed_slot.period_s = 2.0 * spec.fixed_slot.period_s;
      tuned.fixed_slot.work_conserving = true;
      return tuned;
    case core::ControllerType::FixedTime:
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

net::Network build_validated(const net::GridConfig& grid) {
  net::Network network = net::build_grid(grid);
  net::validate_or_throw(network);
  return network;
}

net::GridConfig effective_grid(const scenario::ScenarioConfig& config) {
  net::GridConfig grid = config.grid;
  if (!config.surrogate.enabled ||
      config.simulator != scenario::SimulatorKind::Queue) {
    return grid;
  }
  const scenario::SurrogateConfig& s = config.surrogate;
  grid.service_rate *= s.service_scale;
  // transit_scale > 1 = slower traversal; dividing the speed limit keeps the
  // design travel time's scale factor exact (length is untouched).
  grid.speed_limit_mps /= s.transit_scale;
  grid.capacity = std::max(
      1, static_cast<int>(std::lround(s.capacity_scale * grid.capacity)));
  return grid;
}

IntersectionId resolve_node(const net::Network& network, int row, int col,
                            const char* what) {
  const auto node = network.at_grid(row, col);
  if (!node) {
    throw std::invalid_argument(std::string(what) +
                                " references a junction outside the grid");
  }
  return *node;
}

RoadId resolve_approach(const net::Network& network, int row, int col, net::Side side,
                        const char* what) {
  const IntersectionId node = resolve_node(network, row, col, what);
  const RoadId road = network.intersection(node).incoming_on(side);
  if (!road.valid()) {
    throw std::invalid_argument(std::string(what) + " names a missing approach");
  }
  return road;
}

RoadId resolve_watch(const net::Network& network, const scenario::WatchSpec& w) {
  return resolve_approach(network, w.row, w.col, w.side, "watch");
}

std::vector<core::ControllerPtr> make_run_controllers(
    const scenario::ScenarioConfig& config, const net::Network& network,
    std::vector<const core::AdaptiveController*>* monitors) {
  const std::size_t junctions = network.intersections().size();
  std::vector<std::vector<core::SensorFaultWindow>> sensor_windows(junctions);
  std::vector<std::vector<core::ControllerFaultWindow>> failure_windows(junctions);
  for (const scenario::SensorFault& f : config.faults.sensors) {
    const IntersectionId node =
        resolve_node(network, f.node.row, f.node.col, "sensor fault");
    sensor_windows[node.index()].push_back(
        {f.start_s, f.end_s, f.kind, f.bias, f.noise_magnitude});
  }
  for (const scenario::ControllerFault& f : config.faults.controllers) {
    const IntersectionId node =
        resolve_node(network, f.node.row, f.node.col, "controller fault");
    failure_windows[node.index()].push_back({f.fail_s, f.recover_s});
  }

  std::vector<core::ControllerPtr> controllers;
  controllers.reserve(junctions);
  const double cap = core::max_road_capacity(network);
  for (const net::Intersection& node : network.intersections()) {
    const std::size_t i = node.id.index();
    const core::ControllerSpec& spec = effective_spec(config, network, node.id);
    core::ControllerPtr controller =
        core::make_controller(spec, core::make_plan(network, node), cap);
    if (config.detector.enabled) {
      core::ControllerPtr tuned;
      if (const auto tuned_spec = retuned_spec(spec)) {
        tuned = core::make_controller(*tuned_spec, core::make_plan(network, node), cap);
      }
      auto adaptive = std::make_unique<core::AdaptiveController>(
          std::move(controller), std::move(tuned),
          detect::JunctionMonitor(config.detector, static_cast<int>(node.links.size()),
                                  node.grid_row, node.grid_col));
      if (monitors != nullptr) monitors->push_back(adaptive.get());
      controller = std::move(adaptive);
    }
    if (!sensor_windows[i].empty() || !failure_windows[i].empty()) {
      // The degraded-mode fallback is classical pre-timed control with the
      // junction's own fixed-time parameters (so an overridden corridor
      // junction fails over with its own offsets intact).
      core::ControllerSpec fallback_spec;
      fallback_spec.type = core::ControllerType::FixedTime;
      fallback_spec.fixed_time = spec.fixed_time;
      controller = std::make_unique<core::FaultInjectedController>(
          std::move(controller),
          core::make_controller(fallback_spec, core::make_plan(network, node)),
          std::move(failure_windows[i]), std::move(sensor_windows[i]),
          config.seed + kFaultSeedSalt, static_cast<std::uint64_t>(i));
    }
    controllers.push_back(std::move(controller));
  }
  return controllers;
}

std::vector<CapacityEvent> build_capacity_events(const scenario::ScenarioConfig& config,
                                                 const net::Network& network) {
  std::vector<CapacityEvent> events;
  events.reserve(config.faults.capacity.size() * 2);
  for (const scenario::CapacityFault& f : config.faults.capacity) {
    const RoadId road = resolve_approach(network, f.road.row, f.road.col, f.road.side,
                                         "capacity fault");
    const int design = network.road(road).capacity;
    const int reduced = static_cast<int>(f.capacity_factor * design);
    events.push_back({f.start_s, road, reduced});
    if (f.end_s < std::numeric_limits<double>::infinity()) {
      events.push_back({f.end_s, road, design});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const CapacityEvent& a, const CapacityEvent& b) {
                     return a.time_s < b.time_s;
                   });
  return events;
}

template <>
microsim::MicroSim construct_backend<microsim::MicroSim>(
    const scenario::ScenarioConfig& config, const net::Network& network,
    traffic::DemandGenerator& demand, std::vector<core::ControllerPtr> controllers) {
  return microsim::MicroSim(network, config.micro, std::move(controllers), demand,
                            config.seed + kMicroSeedSalt);
}

template <>
queuesim::QueueSim construct_backend<queuesim::QueueSim>(
    const scenario::ScenarioConfig& config, const net::Network& network,
    traffic::DemandGenerator& demand, std::vector<core::ControllerPtr> controllers) {
  return queuesim::QueueSim(network, config.queue, std::move(controllers), demand);
}

}  // namespace abp::sim
