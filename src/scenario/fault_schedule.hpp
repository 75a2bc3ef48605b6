// Fault schedule: the timed incidents of one run, as a pure value type on
// ScenarioConfig.
//
// A schedule describes *what goes wrong and when* — road capacity drops /
// lane closures with restoration, sensor faults, controller failures — using
// the same (row, col, side) grid addressing as WatchSpec, so a schedule is
// grid-portable and serializable without knowing RoadIds. Resolution against
// the concrete network, and all execution machinery, live behind
// sim::make_simulator(): capacity events are applied between ticks by the
// simulator adapter through per-backend capacity-override hooks, and sensor /
// controller faults are wrapped around the affected junctions' controllers
// via core::FaultInjectedController. Every effect executes in the junction
// phase of the tick, so fixed-seed runs with a nonempty schedule stay
// bit-identical at every batch jobs count; an empty schedule leaves the run
// bit-identical to a build without the subsystem (see docs/ROBUSTNESS.md).
#pragma once

#include <limits>
#include <vector>

#include "src/core/fault_controller.hpp"
#include "src/net/geometry.hpp"

namespace abp::scenario {

// The incoming road arriving at grid junction (row, col) from `side` —
// WatchSpec's addressing.
struct GridRoadRef {
  int row = 0;
  int col = 0;
  net::Side side = net::Side::East;
};

struct GridNodeRef {
  int row = 0;
  int col = 0;
};

// Capacity drop / lane closure: on [start_s, end_s) the road's effective
// capacity is floor(capacity_factor * W); at end_s (if finite) it restores
// to the design capacity W. factor 0 closes the road to new entries entirely
// — vehicles already on it drain normally, occupancy above the reduced cap
// simply blocks admission until it has drained, so occupancy never exceeds
// the design W and the capacity-bound invariant keeps holding mid-incident.
struct CapacityFault {
  GridRoadRef road;
  double start_s = 0.0;
  double end_s = std::numeric_limits<double>::infinity();
  double capacity_factor = 0.5;  // in [0, 1]
};

// Sensor fault at one junction: all of the junction's sensor-derived
// readings (queue, upstream_total, downstream_queue) are perturbed per
// core::SensorFaultKind on [start_s, end_s). Physical state is never forged.
struct SensorFault {
  GridNodeRef node;
  double start_s = 0.0;
  double end_s = std::numeric_limits<double>::infinity();
  core::SensorFaultKind kind = core::SensorFaultKind::Dropout;
  int bias = 0;             // Noise only
  int noise_magnitude = 0;  // Noise only
};

// Controller failure at one junction: on [fail_s, recover_s) decisions are
// delegated to a fixed-time fallback (built from the run's
// ControllerSpec::fixed_time); at recover_s the primary is reset and resumes.
struct ControllerFault {
  GridNodeRef node;
  double fail_s = 0.0;
  double recover_s = std::numeric_limits<double>::infinity();
};

struct FaultSchedule {
  std::vector<CapacityFault> capacity;
  std::vector<SensorFault> sensors;
  std::vector<ControllerFault> controllers;

  [[nodiscard]] bool empty() const noexcept {
    return capacity.empty() && sensors.empty() && controllers.empty();
  }
};

// Value-level rules (non-negative times, start < end, factors in [0, 1], no
// overlapping sensor windows at one junction) are checked by
// scenario::validate (scenario_io.hpp); grid-reference resolution errors
// surface later, from make_simulator().

// --- Runtime invariant guard -------------------------------------------
// Opt-in per-run checking of the cross-backend invariants (conservation,
// capacity bounds — the cross_sim_invariants_test checks, compiled into
// sim::SimulatorGuard) at a fixed simulated-time cadence.

enum class GuardPolicy {
  // Throw sim::GuardViolationError on the first violation (default): inside
  // an ExperimentRunner batch this becomes a per-run Error status.
  Throw,
  // Record violations into RunResult::guard and keep running.
  Record,
  // std::abort() — for debugging under a sanitizer or core dumps.
  Abort,
};

struct GuardConfig {
  bool enabled = false;
  GuardPolicy policy = GuardPolicy::Throw;
  // Simulated seconds between checks; 1.0 = every tick of the default
  // backends. Must be positive when enabled.
  double interval_s = 1.0;
};

}  // namespace abp::scenario
