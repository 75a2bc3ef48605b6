// Unified simulator interface: one abstraction over both backends.
//
// The repository has two simulators with deliberately identical run contracts
// — the microscopic car-following model (src/microsim) and the Section-II
// queueing-network model (src/queuesim, the fast surrogate). Everything above
// the backends (scenario assembly, the experiment runner, benches, the CLI,
// the cross-backend invariant tests) talks to this interface instead of
// branching on SimulatorKind: make_simulator() builds the network from the
// ScenarioConfig, validates it, wires demand and controllers, resolves the
// config's watches, and returns a Simulator that *owns* all of it — callers
// hold one handle with no lifetime bookkeeping.
//
// The introspection hooks are the cross-backend subset the invariant tests
// pin on both implementations (conservation, capacity bounds): anything
// backend-specific (lane positions, link credits) stays on the concrete
// classes, which remain public for the tests that exercise one backend's
// internals.
#pragma once

#include <memory>
#include <string>

#include "src/net/network.hpp"
#include "src/scenario/scenario_config.hpp"
#include "src/stats/run_result.hpp"

namespace abp::sim {

class Simulator {
 public:
  virtual ~Simulator() = default;

  // Registers a queue-length watch on a road (the paper's q_i series).
  virtual void watch_road(RoadId road, std::string series_name) = 0;

  // Advances the simulation to `until_s`; may be called repeatedly with
  // increasing horizons.
  virtual stats::RunResult& run_until(double until_s) = 0;

  // Runs to `duration_s`, closes per-vehicle records, returns the result.
  virtual stats::RunResult finish(double duration_s) = 0;

  [[nodiscard]] virtual double now() const noexcept = 0;

  // --- Cross-backend introspection hooks (invariant tests) ---
  // Total vehicles inside the network right now (O(1) in both backends).
  [[nodiscard]] virtual int vehicles_in_network() const = 0;
  // All vehicles currently on a road, bounded by its capacity W.
  [[nodiscard]] virtual int road_occupancy(RoadId road) const = 0;
  // Vehicles queued at the stop line of a road over all its movements (q_i
  // of Eq. 1: link queues in the queue model, approach-lane occupancy in the
  // microscopic model).
  [[nodiscard]] virtual int queued_on_road(RoadId road) const = 0;
  // Phase currently displayed at a junction.
  [[nodiscard]] virtual net::PhaseIndex displayed_phase(IntersectionId node) const = 0;

  // The network the simulator runs on (owned by the simulator).
  [[nodiscard]] virtual const net::Network& network() const noexcept = 0;
};

// Builds the configured backend with everything it needs — grid network
// (validated), demand generator, a controller for each intersection
// (wrapped in core::FaultInjectedController where the fault schedule names
// the junction), resolved watches, capacity-fault events and the opt-in runtime
// invariant guard — all owned by the returned object. Throws
// scenario::ScenarioIoError (a std::invalid_argument) when
// scenario::validate rejects the config, std::invalid_argument on
// unresolvable watches / fault references, and std::runtime_error on
// network validation failures, like run_scenario() always has. See
// docs/ROBUSTNESS.md for the fault-execution model.
[[nodiscard]] std::unique_ptr<Simulator> make_simulator(
    const scenario::ScenarioConfig& config);

}  // namespace abp::sim
