// Fault-injection determinism suite: incident scenarios must keep every
// determinism guarantee the fault-free runs have.
//
// The fault subsystem executes entirely in the junction phase of the tick —
// capacity events applied between ticks by the simulator adapter, sensor and
// controller faults inside the control step via core::FaultInjectedController
// — so a fixed-seed run with a nonempty FaultSchedule must be bit-identical
// across serial-vs-batch execution, exactly like a fault-free run. This suite pins that, plus golden metric values for one
// incident scenario per backend (the fault analog of golden_determinism_test:
// any refactor that perturbs when or how faults apply shifts these numbers),
// plus the invariant story: conservation and capacity bounds hold *through*
// incidents, checked by the runtime guard in Record mode.
//
// To re-capture the golden pins after a deliberate behavior change, run with
// ABP_DUMP_GOLDEN=1 and copy the printed hex-float actuals.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <utility>

#include "src/core/fault_controller.hpp"
#include "src/exp/experiment_runner.hpp"
#include "src/microsim/micro_sim.hpp"
#include "src/net/grid.hpp"
#include "src/queuesim/queue_sim.hpp"
#include "src/scenario/scenario.hpp"
#include "src/scenario/scenario_io.hpp"
#include "src/sim/run_setup.hpp"
#include "src/sim/simulator.hpp"
#include "src/traffic/demand.hpp"

namespace abp {
namespace {

constexpr std::uint64_t kSeed = 7;

void expect_identical(const stats::NetworkMetrics& a, const stats::NetworkMetrics& b) {
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.entered, b.entered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.in_network_at_end, b.in_network_at_end);
  EXPECT_EQ(a.queuing_time_s.count(), b.queuing_time_s.count());
  EXPECT_EQ(a.travel_time_s.count(), b.travel_time_s.count());
  // Exact double equality on purpose: fault execution must be scheduling
  // independent bit for bit, not approximately.
  EXPECT_EQ(a.queuing_time_s.mean(), b.queuing_time_s.mean());
  EXPECT_EQ(a.travel_time_s.mean(), b.travel_time_s.mean());
  EXPECT_EQ(a.entry_blocked_time_s, b.entry_blocked_time_s);
}

// One incident of every fault class on a 2x2 grid: a lane closure with
// restoration, dead detectors, a noise burst, stuck detectors, and a
// controller outage with recovery. Micro runs use imperfect sensors so RNG
// stream consumption stays load-bearing, as in golden_determinism_test.
scenario::ScenarioConfig incident_config(scenario::SimulatorKind sim) {
  scenario::ScenarioConfig cfg =
      scenario::paper_scenario(traffic::PatternKind::II, core::ControllerType::UtilBp);
  cfg.grid.rows = 2;
  cfg.grid.cols = 2;
  cfg.seed = kSeed;
  cfg.simulator = sim;
  cfg.duration_s = 600.0;
  if (sim == scenario::SimulatorKind::Micro) {
    cfg.micro.sensor.detection_probability = 0.95;
    cfg.micro.sensor.dropout_probability = 0.01;
  }
  cfg.faults.capacity.push_back({{0, 0, net::Side::North}, 120.0, 300.0, 0.3});
  cfg.faults.sensors.push_back(
      {{0, 1}, 100.0, 200.0, core::SensorFaultKind::Dropout, 0, 0});
  cfg.faults.sensors.push_back(
      {{0, 1}, 300.0, 400.0, core::SensorFaultKind::Noise, 2, 3});
  cfg.faults.sensors.push_back(
      {{1, 0}, 150.0, 450.0, core::SensorFaultKind::StuckAt, 0, 0});
  cfg.faults.controllers.push_back({{1, 1}, 150.0, 350.0});
  return cfg;
}

void maybe_dump(const char* label, const stats::NetworkMetrics& m) {
  if (std::getenv("ABP_DUMP_GOLDEN") == nullptr) return;
  std::printf("%s: generated=%zu entered=%zu completed=%zu in_network_at_end=%zu\n",
              label, m.generated, m.entered, m.completed, m.in_network_at_end);
  std::printf("%s: queuing_mean=%a travel_mean=%a entry_blocked=%a\n", label,
              m.queuing_time_s.mean(), m.travel_time_s.mean(), m.entry_blocked_time_s);
}

TEST(FaultInjection, ScheduleValidationRejectsBadValues) {
  scenario::ScenarioConfig cfg;
  scenario::FaultSchedule& s = cfg.faults;
  s.capacity.push_back({{0, 0, net::Side::North}, 100.0, 50.0, 0.5});
  EXPECT_THROW(scenario::validate(cfg), std::invalid_argument);
  s.capacity[0] = {{0, 0, net::Side::North}, 0.0, 100.0, 1.5};
  EXPECT_THROW(scenario::validate(cfg), std::invalid_argument);
  s.capacity.clear();
  s.sensors.push_back({{0, 0}, 0.0, 100.0, core::SensorFaultKind::Dropout, 0, 0});
  s.sensors.push_back({{0, 0}, 50.0, 150.0, core::SensorFaultKind::Noise, 0, 1});
  EXPECT_THROW(scenario::validate(cfg), std::invalid_argument);  // overlap
  s.sensors[1].start_s = 100.0;  // back-to-back windows are fine
  EXPECT_NO_THROW(scenario::validate(cfg));
  s.controllers.push_back({{0, 0}, -1.0, 10.0});
  EXPECT_THROW(scenario::validate(cfg), std::invalid_argument);
}

TEST(FaultInjection, UnresolvableFaultReferenceThrows) {
  scenario::ScenarioConfig cfg = incident_config(scenario::SimulatorKind::Queue);
  cfg.faults.capacity.push_back({{9, 9, net::Side::North}, 0.0, 10.0, 0.5});
  EXPECT_THROW((void)scenario::run_scenario(cfg), std::invalid_argument);
  cfg = incident_config(scenario::SimulatorKind::Queue);
  cfg.faults.sensors.push_back(
      {{9, 9}, 0.0, 10.0, core::SensorFaultKind::Dropout, 0, 0});
  EXPECT_THROW((void)scenario::run_scenario(cfg), std::invalid_argument);
}

TEST(FaultInjection, FaultsActuallyChangeTheRun) {
  for (const scenario::SimulatorKind kind :
       {scenario::SimulatorKind::Queue, scenario::SimulatorKind::Micro}) {
    SCOPED_TRACE(kind == scenario::SimulatorKind::Queue ? "queue" : "micro");
    scenario::ScenarioConfig faulted = incident_config(kind);
    scenario::ScenarioConfig clean = faulted;
    clean.faults = {};
    const auto a = scenario::run_scenario(faulted);
    const auto b = scenario::run_scenario(clean);
    // A 60%-capacity closure of an entry approach for 180 s must be visible
    // in the aggregate queuing behavior.
    EXPECT_NE(a.metrics.queuing_time_s.mean(), b.metrics.queuing_time_s.mean());
  }
}

TEST(FaultInjection, RunToRunDeterminismWithFaults) {
  for (const scenario::SimulatorKind kind :
       {scenario::SimulatorKind::Queue, scenario::SimulatorKind::Micro}) {
    SCOPED_TRACE(kind == scenario::SimulatorKind::Queue ? "queue" : "micro");
    const auto a = scenario::run_scenario(incident_config(kind));
    const auto b = scenario::run_scenario(incident_config(kind));
    expect_identical(a.metrics, b.metrics);
  }
}

// Golden values for the incident scenario (capacity events applied at tick
// boundaries by the adapter, sensor/controller faults in the control step,
// noise stream keyed (seed + 0xFA17, junction index), noise offsets drawn
// with the unbiased bounded draw). Any change to when or how faults apply
// shifts these numbers. Re-capture with ABP_DUMP_GOLDEN=1.
TEST(FaultInjection, MicroIncidentPinnedMetrics) {
  const auto r = scenario::run_scenario(incident_config(scenario::SimulatorKind::Micro));
  maybe_dump("micro", r.metrics);
  EXPECT_EQ(r.metrics.generated, 830u);
  EXPECT_EQ(r.metrics.entered, 830u);
  EXPECT_EQ(r.metrics.completed, 665u);
  EXPECT_EQ(r.metrics.in_network_at_end, 165u);
  EXPECT_EQ(r.metrics.queuing_time_s.mean(), 0x1.82b7d395e6177p+5);  // 48.33975904
  EXPECT_EQ(r.metrics.travel_time_s.mean(), 0x1.a96fa72bcc2eep+6);   // 106.35903614
  EXPECT_EQ(r.metrics.entry_blocked_time_s, 0x1.7cp+5);              // 47.5
}

TEST(FaultInjection, QueueIncidentPinnedMetrics) {
  const auto r = scenario::run_scenario(incident_config(scenario::SimulatorKind::Queue));
  maybe_dump("queue", r.metrics);
  EXPECT_EQ(r.metrics.generated, 830u);
  EXPECT_EQ(r.metrics.entered, 830u);
  EXPECT_EQ(r.metrics.completed, 716u);
  EXPECT_EQ(r.metrics.in_network_at_end, 114u);
  EXPECT_EQ(r.metrics.queuing_time_s.mean(), 0x1.c1482c6a19e89p+5);  // 56.16024096
  EXPECT_EQ(r.metrics.travel_time_s.mean(), 0x1.8b5482c6a19e9p+6);   // 98.83253012
  EXPECT_EQ(r.metrics.entry_blocked_time_s, 0x0p+0);                 // 0.0
}

// Batch execution through the ExperimentRunner must match the serial loop
// bit for bit with faults in play, at every jobs count — fault state is
// per-run (owned by the run's own adapter and controllers), never shared.
TEST(FaultInjection, BatchMatchesSerialWithFaults) {
  std::vector<scenario::ScenarioConfig> configs = {
      incident_config(scenario::SimulatorKind::Queue),
      incident_config(scenario::SimulatorKind::Micro)};
  configs[0].duration_s = 300.0;
  configs[1].duration_s = 300.0;

  std::vector<stats::RunResult> serial;
  for (const auto& cfg : configs) serial.push_back(scenario::run_scenario(cfg));

  for (int jobs : {1, 2, 8}) {
    SCOPED_TRACE(jobs);
    exp::ExperimentRunner runner({.jobs = jobs, .allow_oversubscribe = true});
    const std::vector<stats::RunResult> batch = runner.run(configs);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE(i);
      expect_identical(serial[i].metrics, batch[i].metrics);
    }
  }
}

// A schedule whose windows never fire inside the run, plus an enabled guard,
// must be bit-identical to the plain fault-free run: the adapter's sliced
// run_until stepping and the guard's read-only checks have no behavioral
// footprint. (This is the empty-schedule zero-cost claim, sharpened to
// zero *effect* for dormant machinery.)
TEST(FaultInjection, DormantScheduleAndGuardAreBehaviorNeutral) {
  for (const scenario::SimulatorKind kind :
       {scenario::SimulatorKind::Queue, scenario::SimulatorKind::Micro}) {
    SCOPED_TRACE(kind == scenario::SimulatorKind::Queue ? "queue" : "micro");
    scenario::ScenarioConfig plain = incident_config(kind);
    plain.faults = {};
    plain.duration_s = 300.0;
    scenario::ScenarioConfig dormant = plain;
    dormant.faults.capacity.push_back(
        {{0, 0, net::Side::North}, 5000.0, 6000.0, 0.3});  // after the horizon
    dormant.guard.enabled = true;
    dormant.guard.policy = scenario::GuardPolicy::Throw;
    const auto a = scenario::run_scenario(plain);
    const auto b = scenario::run_scenario(dormant);
    expect_identical(a.metrics, b.metrics);
    EXPECT_GT(b.guard.checks, 0u);
  }
}

// Conservation and capacity bounds hold *through* the incidents — including
// the controller outage, where the degraded junction runs fixed-time — on
// both backends. GuardPolicy::Record turns every violating tick into a report
// entry, so this asserts zero violations over the whole run rather than
// sampling a few ticks.
TEST(FaultInjection, InvariantsHoldThroughIncidents) {
  for (const scenario::SimulatorKind kind :
       {scenario::SimulatorKind::Queue, scenario::SimulatorKind::Micro}) {
    SCOPED_TRACE(kind == scenario::SimulatorKind::Queue ? "queue" : "micro");
    scenario::ScenarioConfig cfg = incident_config(kind);
    cfg.guard.enabled = true;
    cfg.guard.policy = scenario::GuardPolicy::Record;
    const auto r = scenario::run_scenario(cfg);
    EXPECT_GT(r.guard.checks, 0u);
    EXPECT_TRUE(r.guard.violations.empty()) << r.guard.violations.front().message;
  }
}

// Backend capacity hooks: a closed entry road admits nobody; restoring the
// capacity reopens it. Exercised directly on both backends.
TEST(FaultInjection, CapacityOverrideHookClosesAndReopensRoads) {
  net::GridConfig gcfg;
  gcfg.rows = 1;
  gcfg.cols = 1;
  const net::Network net = net::build_grid(gcfg);
  core::ControllerSpec spec;
  traffic::DemandConfig dcfg;
  dcfg.pattern = traffic::PatternKind::I;
  {
    SCOPED_TRACE("queue");
    traffic::DemandGenerator demand(net, dcfg, kSeed);
    queuesim::QueueSim sim(net, queuesim::QueueSimConfig{},
                           core::make_controllers(spec, net), demand);
    for (RoadId entry : net.entry_roads()) sim.set_road_capacity(entry, 0);
    EXPECT_EQ(sim.road_capacity(net.entry_roads().front()), 0);
    const stats::RunResult& r = sim.run_until(60.0);
    EXPECT_GT(r.metrics.generated, 0u);
    EXPECT_EQ(r.metrics.entered, 0u);
    for (RoadId entry : net.entry_roads()) {
      sim.set_road_capacity(entry, net.road(entry).capacity);
    }
    const stats::RunResult& r2 = sim.run_until(120.0);
    EXPECT_GT(r2.metrics.entered, 0u);
  }
  {
    SCOPED_TRACE("micro");
    traffic::DemandGenerator demand(net, dcfg, kSeed);
    microsim::MicroSim sim(net, microsim::MicroSimConfig{},
                           core::make_controllers(spec, net), demand, kSeed + sim::kMicroSeedSalt);
    for (RoadId entry : net.entry_roads()) sim.set_road_capacity(entry, 0);
    const stats::RunResult& r = sim.run_until(60.0);
    EXPECT_GT(r.metrics.generated, 0u);
    EXPECT_EQ(r.metrics.entered, 0u);
    for (RoadId entry : net.entry_roads()) {
      sim.set_road_capacity(entry, net.road(entry).capacity);
    }
    const stats::RunResult& r2 = sim.run_until(120.0);
    EXPECT_GT(r2.metrics.entered, 0u);
  }
}

// --- FaultInjectedController unit coverage -----------------------------

// Probe controller: records the observations it is given and returns a
// fixed phase.
class ProbeController final : public core::SignalController {
 public:
  explicit ProbeController(net::PhaseIndex phase) : phase_(phase) {}
  net::PhaseIndex decide(const core::IntersectionObservation& obs) override {
    last_obs = obs;
    decisions += 1;
    return phase_;
  }
  void reset() override { resets += 1; }
  [[nodiscard]] std::string name() const override { return "PROBE"; }

  core::IntersectionObservation last_obs;
  int decisions = 0;
  int resets = 0;

 private:
  net::PhaseIndex phase_ = 0;
};

core::IntersectionObservation make_obs(double time, int queue) {
  core::IntersectionObservation obs;
  obs.time = time;
  core::LinkState s;
  s.queue = queue;
  s.upstream_total = queue + 1;
  s.downstream_queue = queue + 2;
  s.downstream_total = 42;  // physical; must never be perturbed
  obs.links.push_back(s);
  return obs;
}

TEST(FaultInjectedController, FailoverDelegatesAndRecoveryResetsPrimary) {
  auto primary = std::make_unique<ProbeController>(1);
  auto fallback = std::make_unique<ProbeController>(2);
  ProbeController* p = primary.get();
  ProbeController* f = fallback.get();
  core::FaultInjectedController ctrl(std::move(primary), std::move(fallback),
                                     {{10.0, 20.0}}, {}, kSeed, 0);
  EXPECT_EQ(ctrl.decide(make_obs(5.0, 3)), 1);
  EXPECT_FALSE(ctrl.degraded());
  EXPECT_EQ(ctrl.decide(make_obs(10.0, 3)), 2);
  EXPECT_TRUE(ctrl.degraded());
  EXPECT_EQ(ctrl.decide(make_obs(19.0, 3)), 2);
  EXPECT_EQ(p->decisions, 1);  // the primary sat out the outage
  EXPECT_EQ(p->resets, 0);
  EXPECT_EQ(ctrl.decide(make_obs(20.0, 3)), 1);  // recovered
  EXPECT_FALSE(ctrl.degraded());
  EXPECT_EQ(p->resets, 1);  // stale clocks cleared before resuming
  EXPECT_EQ(f->decisions, 2);
  EXPECT_EQ(ctrl.name(), "PROBE");
}

TEST(FaultInjectedController, DropoutZeroesSensorReadingsOnly) {
  auto primary = std::make_unique<ProbeController>(1);
  ProbeController* p = primary.get();
  core::FaultInjectedController ctrl(
      std::move(primary), std::make_unique<ProbeController>(2), {},
      {{10.0, 20.0, core::SensorFaultKind::Dropout, 0, 0}}, kSeed, 0);
  (void)ctrl.decide(make_obs(15.0, 7));
  EXPECT_EQ(p->last_obs.links[0].queue, 0);
  EXPECT_EQ(p->last_obs.links[0].upstream_total, 0);
  EXPECT_EQ(p->last_obs.links[0].downstream_queue, 0);
  EXPECT_EQ(p->last_obs.links[0].downstream_total, 42);  // physical, untouched
  EXPECT_EQ(p->last_obs.time, 15.0);                     // time stays truthful
  (void)ctrl.decide(make_obs(25.0, 7));
  EXPECT_EQ(p->last_obs.links[0].queue, 7);  // healthy after the window
}

TEST(FaultInjectedController, StuckAtFreezesLastHealthyReadings) {
  auto primary = std::make_unique<ProbeController>(1);
  ProbeController* p = primary.get();
  core::FaultInjectedController ctrl(
      std::move(primary), std::make_unique<ProbeController>(2), {},
      {{10.0, 20.0, core::SensorFaultKind::StuckAt, 0, 0}}, kSeed, 0);
  (void)ctrl.decide(make_obs(5.0, 4));   // healthy; becomes the freeze frame
  (void)ctrl.decide(make_obs(15.0, 9));  // stuck: reports the frozen 4
  EXPECT_EQ(p->last_obs.links[0].queue, 4);
  EXPECT_EQ(p->last_obs.time, 15.0);
  (void)ctrl.decide(make_obs(25.0, 9));
  EXPECT_EQ(p->last_obs.links[0].queue, 9);
}

TEST(FaultInjectedController, NoiseIsDeterministicPerSeedAndClampedAtZero) {
  auto run_once = [](std::uint64_t seed) {
    auto primary = std::make_unique<ProbeController>(1);
    ProbeController* p = primary.get();
    core::FaultInjectedController ctrl(
        std::move(primary), std::make_unique<ProbeController>(2), {},
        {{0.0, 100.0, core::SensorFaultKind::Noise, -2, 3}}, seed, 5);
    std::vector<int> readings;
    for (int t = 0; t < 10; ++t) {
      (void)ctrl.decide(make_obs(static_cast<double>(t), 1));
      readings.push_back(p->last_obs.links[0].queue);
      EXPECT_GE(readings.back(), 0);  // clamped: a detector can't go negative
    }
    return readings;
  };
  EXPECT_EQ(run_once(kSeed), run_once(kSeed));  // same seed, same burst
  EXPECT_NE(run_once(kSeed), run_once(kSeed + 1));
}

// Bias and magnitude may each be any int the schema admits; the noisy
// reading is computed without int overflow and clamped to [0, INT_MAX].
TEST(FaultInjectedController, ExtremeNoiseStaysInRange) {
  constexpr int kMax = std::numeric_limits<int>::max();
  constexpr int kMin = std::numeric_limits<int>::min();
  for (const auto& [bias, magnitude] : {std::pair{kMax, 0}, std::pair{kMin, kMax}}) {
    SCOPED_TRACE(bias);
    auto primary = std::make_unique<ProbeController>(1);
    ProbeController* p = primary.get();
    core::FaultInjectedController ctrl(
        std::move(primary), std::make_unique<ProbeController>(2), {},
        {{0.0, 100.0, core::SensorFaultKind::Noise, bias, magnitude}}, kSeed, 5);
    for (int t = 0; t < 50; ++t) {
      (void)ctrl.decide(make_obs(static_cast<double>(t), 1));
      const core::LinkState& s = p->last_obs.links[0];
      for (int reading : {s.queue, s.upstream_total, s.downstream_queue}) {
        EXPECT_GE(reading, 0);
        // With no noise, INT_MAX plus any positive reading saturates.
        if (magnitude == 0) {
          EXPECT_EQ(reading, kMax);
        }
      }
    }
  }
}

}  // namespace
}  // namespace abp
