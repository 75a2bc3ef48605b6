// Runtime invariant guard: the cross-backend physical invariants of
// tests/cross_sim_invariants_test, compiled into an opt-in per-run checker.
//
// The invariant suite pins both backends at test time; long fault-injection
// campaigns want the same checks *during* a run, so a backend bug (or a bad
// fault schedule interaction) is caught at the violating tick with a usable
// message instead of surfacing as skewed end-of-run metrics. The guard reads
// only the public Simulator introspection hooks plus the run's metrics —
// exactly what the tests read — and is driven by the simulator adapter at
// GuardConfig::interval_s simulated-second cadence, in the sequential phase
// between ticks, so enabling it cannot perturb results (it performs no
// writes and consumes no RNG).
//
// Checks, per invocation:
//   * conservation: generated >= entered, and
//     entered == completed + vehicles_in_network;
//   * capacity safety: per road, 0 <= occupancy <= design capacity W, and
//     0 <= queued <= occupancy. The bound is the *design* W even mid-incident:
//     capacity faults only restrict admission (factor in [0, 1]), so physical
//     occupancy must still respect the road's geometry.
#pragma once

#include <stdexcept>
#include <string>

#include "src/scenario/fault_schedule.hpp"
#include "src/sim/simulator.hpp"

namespace abp::sim {

// Raised under GuardPolicy::Throw; inside an ExperimentRunner batch it is
// captured into the run's Error status like any other run failure.
class GuardViolationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class SimulatorGuard {
 public:
  explicit SimulatorGuard(scenario::GuardPolicy policy) : policy_(policy) {}

  // Runs every check against the simulator's current state, applying the
  // policy to each violation found: Throw raises GuardViolationError on the
  // first one, Record appends to `report`, Abort writes the message to
  // stderr and calls std::abort(). Always increments report.checks.
  void check(const Simulator& simulator, const stats::NetworkMetrics& metrics,
             stats::GuardReport& report) const;

 private:
  void handle(double now_s, std::string message, stats::GuardReport& report) const;

  scenario::GuardPolicy policy_;
};

}  // namespace abp::sim
