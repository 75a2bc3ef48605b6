// Cross-backend invariant suite: both simulators — the Section-II queueing
// model and the microscopic car-following model — must satisfy the same
// physical invariants at *every* tick of a run, for every controller and
// demand pattern in a small sweep:
//
//   * conservation: every admitted vehicle is either still in the network or
//     has exited (entered == completed + in_network), and admission never
//     outruns generation;
//   * capacity safety: per-road occupancy stays within [0, W] (Eq. 8's hard
//     bound), and per-road stop-line queues are non-negative and bounded by
//     the road's occupancy.
//
// The queue model is the fast surrogate for micro runs (see ROADMAP), so the
// two backends are pinned by identical checks through a shared template —
// drift in either one's bookkeeping (admission, service, completion) breaks
// the suite rather than silently skewing a cross-model comparison.
#include <gtest/gtest.h>

#include <string>

#include "src/core/factory.hpp"
#include "src/microsim/micro_sim.hpp"
#include "src/net/grid.hpp"
#include "src/queuesim/queue_sim.hpp"
#include "src/scenario/scenario.hpp"
#include "src/sim/run_setup.hpp"
#include "src/sim/simulator.hpp"
#include "src/traffic/demand.hpp"

namespace abp {
namespace {

constexpr std::uint64_t kSeed = 99;

// Both backends (and the unified sim::Simulator interface) expose the same
// introspection surface — queued_on_road is the stop-line queue total, q_i
// of Eq. 1 — so one template drives all three.
template <typename Sim>
void check_invariants_every_tick(Sim& sim, const net::Network& net, double duration_s) {
  for (int t = 1; t <= static_cast<int>(duration_s); ++t) {
    const stats::RunResult& r = sim.run_until(static_cast<double>(t));
    ASSERT_GE(r.metrics.generated, r.metrics.entered) << "t=" << t;
    ASSERT_EQ(static_cast<long long>(r.metrics.entered),
              static_cast<long long>(r.metrics.completed) + sim.vehicles_in_network())
        << "conservation broken at t=" << t;
    for (const net::Road& road : net.roads()) {
      const int occ = sim.road_occupancy(road.id);
      ASSERT_GE(occ, 0) << road.name << " t=" << t;
      ASSERT_LE(occ, road.capacity) << road.name << " t=" << t;
      const int queued = sim.queued_on_road(road.id);
      ASSERT_GE(queued, 0) << road.name << " t=" << t;
      ASSERT_LE(queued, occ) << road.name << " t=" << t;
    }
  }
}

void run_both_backends(const net::Network& net, const core::ControllerSpec& spec,
                       const traffic::DemandConfig& dcfg, double duration_s) {
  {
    SCOPED_TRACE("queue");
    traffic::DemandGenerator demand(net, dcfg, kSeed);
    queuesim::QueueSim sim(net, queuesim::QueueSimConfig{},
                           core::make_controllers(spec, net), demand);
    check_invariants_every_tick(sim, net, duration_s);
  }
  {
    SCOPED_TRACE("micro");
    traffic::DemandGenerator demand(net, dcfg, kSeed);
    microsim::MicroSim sim(net, microsim::MicroSimConfig{},
                           core::make_controllers(spec, net), demand, kSeed + sim::kMicroSeedSalt);
    check_invariants_every_tick(sim, net, duration_s);
  }
}

TEST(CrossSimInvariants, ConservationAndCapacityAcrossControllersAndPatterns) {
  net::GridConfig gcfg;
  gcfg.rows = 2;
  gcfg.cols = 2;
  const net::Network net = net::build_grid(gcfg);
  const core::ControllerType controllers[] = {core::ControllerType::UtilBp,
                                              core::ControllerType::FixedTime};
  const traffic::PatternKind patterns[] = {traffic::PatternKind::I,
                                           traffic::PatternKind::II};
  for (core::ControllerType type : controllers) {
    for (traffic::PatternKind pattern : patterns) {
      SCOPED_TRACE(core::controller_type_name(type) + "/" +
                   traffic::pattern_name(pattern));
      core::ControllerSpec spec;
      spec.type = type;
      traffic::DemandConfig dcfg;
      dcfg.pattern = pattern;
      run_both_backends(net, spec, dcfg, 400.0);
    }
  }
}

TEST(CrossSimInvariants, CapacityBoundHoldsUnderSaturation) {
  // Tight roads under 4x demand: entry roads saturate and admission blocks,
  // so the W bound is exercised for real rather than vacuously.
  net::GridConfig gcfg;
  gcfg.rows = 1;
  gcfg.cols = 1;
  gcfg.capacity = 20;
  const net::Network net = net::build_grid(gcfg);
  core::ControllerSpec spec;  // UTIL-BP defaults
  traffic::DemandConfig dcfg;
  dcfg.pattern = traffic::PatternKind::I;
  dcfg.interarrival_scale = 0.25;
  run_both_backends(net, spec, dcfg, 300.0);
}

TEST(CrossSimInvariants, UnifiedInterfaceEnforcesSameInvariantsOnBothBackends) {
  // The same per-tick checks driven purely through the abp::sim::Simulator
  // interface and its cross-backend introspection hooks — what the experiment
  // layer and any future surrogate-model pipeline will see. A backend whose
  // hook wiring drifts from its internals fails here even if the direct
  // per-backend suites above still pass.
  for (const scenario::SimulatorKind kind :
       {scenario::SimulatorKind::Queue, scenario::SimulatorKind::Micro}) {
    SCOPED_TRACE(kind == scenario::SimulatorKind::Queue ? "queue" : "micro");
    scenario::ScenarioConfig cfg = scenario::paper_scenario(
        traffic::PatternKind::II, core::ControllerType::UtilBp);
    cfg.grid.rows = 2;
    cfg.grid.cols = 2;
    cfg.seed = kSeed;
    cfg.simulator = kind;
    const std::unique_ptr<sim::Simulator> simulator = sim::make_simulator(cfg);
    check_invariants_every_tick(*simulator, simulator->network(), 400.0);
  }
}

TEST(CrossSimInvariants, InvariantsHoldUnderIncidentSchedule) {
  // The full incident repertoire — a 70% capacity drop with restoration,
  // a detector dropout, a noise burst, stuck sensors, and a controller
  // outage that degrades one junction to fixed-time — must not be able to
  // break conservation or the capacity bounds at any tick, on either
  // backend. Capacity faults restrict *admission* only, so occupancy keeps
  // respecting the design W even while the effective capacity is lower.
  for (const scenario::SimulatorKind kind :
       {scenario::SimulatorKind::Queue, scenario::SimulatorKind::Micro}) {
    SCOPED_TRACE(kind == scenario::SimulatorKind::Queue ? "queue" : "micro");
    scenario::ScenarioConfig cfg = scenario::paper_scenario(
        traffic::PatternKind::II, core::ControllerType::UtilBp);
    cfg.grid.rows = 2;
    cfg.grid.cols = 2;
    cfg.seed = kSeed;
    cfg.simulator = kind;
    cfg.faults.capacity.push_back({{0, 0, net::Side::North}, 60.0, 240.0, 0.3});
    cfg.faults.sensors.push_back(
        {{0, 1}, 50.0, 150.0, core::SensorFaultKind::Dropout, 0, 0});
    cfg.faults.sensors.push_back(
        {{0, 1}, 200.0, 300.0, core::SensorFaultKind::Noise, 2, 3});
    cfg.faults.sensors.push_back(
        {{1, 0}, 80.0, 320.0, core::SensorFaultKind::StuckAt, 0, 0});
    cfg.faults.controllers.push_back({{1, 1}, 100.0, 250.0});
    const std::unique_ptr<sim::Simulator> simulator = sim::make_simulator(cfg);
    check_invariants_every_tick(*simulator, simulator->network(), 400.0);
  }
}

}  // namespace
}  // namespace abp
