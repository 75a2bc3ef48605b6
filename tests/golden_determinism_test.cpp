// Golden determinism pins for the hot-path refactors.
//
// Perf work on the simulators (topology indexing, active-vehicle tracking,
// O(1) lane queues, observation memoization) must be *provably* behavior
// preserving: for a fixed seed, both simulators must produce bit-identical
// RunResult metrics before and after any such refactor. These tests pin the
// exact metric values of a 2x2-grid run for each simulator, plus run-to-run
// determinism.
//
// The microscopic run deliberately uses an imperfect sensor model: with
// detection_probability < 1, measure_queue() draws one Bernoulli per *truly
// queued vehicle* per reading, so the RNG stream consumption depends on every
// queue count the simulator produces. Any refactor that perturbs queue
// counting, observation order, or RNG call order shifts the sensor stream and
// changes these numbers. Dawdling noise comes from per-road counter-based
// streams (StreamRng), so a change to the sweep's draw accounting moves them
// too.
//
// If a deliberate behavior change invalidates the pins, re-capture them with
// the printed actuals — but only after convincing yourself the change is
// intended (see docs/PERFORMANCE.md). The micro pins were last re-captured
// for PR 2, which moved dawdling off the sensor RNG stream onto per-road
// StreamRngs, reordered the tick into junction phase + parallel sweep, and
// switched the car-following update to the synchronous Krauss (1998) form
// (followers react to the leader's previous-step state).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/microsim/micro_sim.hpp"
#include "src/queuesim/queue_sim.hpp"
#include "src/scenario/scenario.hpp"
#include "src/sim/run_setup.hpp"
#include "tests/result_compare.hpp"

namespace abp {
namespace {

using testing::fold_queue_state;
using testing::StateDigest;

constexpr std::uint64_t kSeed = 7;

scenario::ScenarioConfig golden_config(scenario::SimulatorKind sim) {
  scenario::ScenarioConfig cfg =
      scenario::paper_scenario(traffic::PatternKind::II, core::ControllerType::UtilBp);
  cfg.grid.rows = 2;
  cfg.grid.cols = 2;
  cfg.seed = kSeed;
  cfg.simulator = sim;
  cfg.duration_s = 900.0;
  if (sim == scenario::SimulatorKind::Micro) {
    // Imperfect detectors: ties the RNG stream to every queue reading.
    cfg.micro.sensor.detection_probability = 0.95;
    cfg.micro.sensor.dropout_probability = 0.01;
  }
  return cfg;
}

void expect_identical(const stats::NetworkMetrics& a, const stats::NetworkMetrics& b) {
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.entered, b.entered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.in_network_at_end, b.in_network_at_end);
  EXPECT_EQ(a.queuing_time_s.count(), b.queuing_time_s.count());
  EXPECT_EQ(a.travel_time_s.count(), b.travel_time_s.count());
  // Exact double equality on purpose: the refactors under test must preserve
  // the arithmetic bit for bit, not approximately.
  EXPECT_EQ(a.queuing_time_s.mean(), b.queuing_time_s.mean());
  EXPECT_EQ(a.travel_time_s.mean(), b.travel_time_s.mean());
  EXPECT_EQ(a.entry_blocked_time_s, b.entry_blocked_time_s);
}

TEST(GoldenDeterminism, MicroSimRunToRun) {
  const auto a = scenario::run_scenario(golden_config(scenario::SimulatorKind::Micro));
  const auto b = scenario::run_scenario(golden_config(scenario::SimulatorKind::Micro));
  expect_identical(a.metrics, b.metrics);
}

TEST(GoldenDeterminism, QueueSimRunToRun) {
  const auto a = scenario::run_scenario(golden_config(scenario::SimulatorKind::Queue));
  const auto b = scenario::run_scenario(golden_config(scenario::SimulatorKind::Queue));
  expect_identical(a.metrics, b.metrics);
}

// Golden values captured from the PR 2 parallel-tick implementation (per-road
// StreamRng dawdling, junction phase + SoA sweep), 2x2 grid, seed 7, 900 s.
TEST(GoldenDeterminism, MicroSimPinnedMetrics) {
  const auto r = scenario::run_scenario(golden_config(scenario::SimulatorKind::Micro));
  EXPECT_EQ(r.metrics.generated, 1272u);
  EXPECT_EQ(r.metrics.entered, 1272u);
  EXPECT_EQ(r.metrics.completed, 1155u);
  EXPECT_EQ(r.metrics.in_network_at_end, 117u);
  EXPECT_EQ(r.metrics.queuing_time_s.count(), 1272u);
  EXPECT_EQ(r.metrics.travel_time_s.count(), 1272u);
  EXPECT_EQ(r.metrics.queuing_time_s.mean(), 0x1.d6e7d95bc609bp+3);  // 14.71580189
  EXPECT_EQ(r.metrics.travel_time_s.mean(), 0x1.26f1826a439f6p+6);   // 73.73584906
  EXPECT_EQ(r.metrics.entry_blocked_time_s, 0x1.0ap+6);              // 66.5
}

// Folds the observable state after every tick of a sparse micro run: a 16x16
// grid (1,088 roads) under light pattern I demand, 300 s from empty, with the
// default perfect sensor, so most junctions and roads are idle at any tick and
// roads keep filling and draining. The state is vehicles in the network,
// every road's occupancy and queued count, every displayed phase and every
// lane's vehicle positions.
scenario::ScenarioConfig sparse_micro_config() {
  scenario::ScenarioConfig cfg =
      scenario::paper_scenario(traffic::PatternKind::I, core::ControllerType::UtilBp);
  cfg.grid.rows = 16;
  cfg.grid.cols = 16;
  cfg.seed = kSeed;
  cfg.simulator = scenario::SimulatorKind::Micro;
  return cfg;
}

std::uint64_t micro_state_digest(const scenario::ScenarioConfig& cfg) {
  const net::Network network = sim::build_validated(sim::effective_grid(cfg));
  traffic::DemandGenerator demand(network, cfg.demand, cfg.seed);
  microsim::MicroSim micro = sim::construct_backend<microsim::MicroSim>(
      cfg, network, demand, sim::make_run_controllers(cfg, network, nullptr));
  StateDigest digest;
  const int ticks = static_cast<int>(300.0 / cfg.micro.dt_s);
  for (int t = 1; t <= ticks; ++t) {
    micro.run_until(t * cfg.micro.dt_s);
    digest.add(micro.vehicles_in_network());
    for (const net::Road& road : network.roads()) {
      digest.add(micro.road_occupancy(road.id));
      digest.add(micro.queued_on_road(road.id));
    }
    for (const net::Intersection& node : network.intersections()) {
      digest.add(micro.displayed_phase(node.id));
    }
    for (const net::Link& link : network.links()) {
      const std::vector<double> positions = micro.lane_positions(link.id);
      digest.add(static_cast<std::uint64_t>(positions.size()));
      for (double p : positions) digest.add(p);
    }
  }
  return digest.value();
}

// The 2x2 pins above read an imperfect sensor, so no control step there may
// skip an idle junction's decision, and their 24 roads fit in one word of
// the sweep's active-road bitmap. This pin covers the sparse regime, where
// the tick skips empty roads and idle junctions across 17 bitmap words, tick
// by tick rather than only at the end of the run. The value predates the
// active-set tick and the serial sweep: the skips and the inline exit-road
// completions must be invisible.
TEST(GoldenDeterminism, MicroSimSparseMidRunStateDigestIsPinned) {
  const std::uint64_t digest = micro_state_digest(sparse_micro_config());
  EXPECT_EQ(digest, 0xe5435e00bcad631cULL) << std::hex << digest;
}

// The same run on 20 m roads, shorter than the 25 m stop-line service zone:
// a vehicle admitted onto an entry road or released from a junction box onto
// an empty lane is inside the zone at once, so stop-line service may grant it
// in the same tick, before any lane sweep has moved it. The value predates
// the junction active sets, whose ready bitmap must cover those pushes too.
TEST(GoldenDeterminism, MicroSimShortRoadMidRunStateDigestIsPinned) {
  scenario::ScenarioConfig cfg = sparse_micro_config();
  cfg.grid.road_length_m = 20.0;
  cfg.grid.boundary_length_m = 20.0;
  const std::uint64_t digest = micro_state_digest(cfg);
  EXPECT_EQ(digest, 0xbda45d9e9a957b80ULL) << std::hex << digest;
}

// The same fold on a 3x3 grid whose stop-line service zone is 0.2 m, the
// distance at which the lane kernel holds a head before the stop line. A held
// head then sits exactly at length_m - service_zone_m, the one position where
// the sweep's ready mark (!(pos < zone_start)) and service's own zone test
// (pos < zone_start) must agree; a sweep that tested `<=` would never mark it
// and the grid would stall. Captured before the per-link ready bits.
TEST(GoldenDeterminism, MicroSimZoneBoundaryMidRunStateDigestIsPinned) {
  scenario::ScenarioConfig cfg = sparse_micro_config();
  cfg.grid.rows = 3;
  cfg.grid.cols = 3;
  cfg.micro.service_zone_m = 0.2;
  const std::uint64_t digest = micro_state_digest(cfg);
  EXPECT_EQ(digest, 0x53fd7dde2a7b68b4ULL) << std::hex << digest;
}

// The sparse 16x16 run with one mixed lane per road, where the head's own
// resolved movement picks the link that may serve it (head-of-line blocking)
// and several green links share one stop line. No scenarios/*.json sets the
// flag, so this is the mixed-lane path's only pin captured at an earlier
// commit. Captured before the per-link ready bits, whose mark on a mixed lane
// is the head's movement.
TEST(GoldenDeterminism, MicroSimMixedLaneMidRunStateDigestIsPinned) {
  scenario::ScenarioConfig cfg = sparse_micro_config();
  cfg.micro.dedicated_turn_lanes = false;
  const std::uint64_t digest = micro_state_digest(cfg);
  EXPECT_EQ(digest, 0x5c278fc97d43a0bcULL) << std::hex << digest;
}

TEST(GoldenDeterminism, QueueSimPinnedMetrics) {
  const auto r = scenario::run_scenario(golden_config(scenario::SimulatorKind::Queue));
  EXPECT_EQ(r.metrics.generated, 1272u);
  EXPECT_EQ(r.metrics.entered, 1272u);
  EXPECT_EQ(r.metrics.completed, 1159u);
  EXPECT_EQ(r.metrics.in_network_at_end, 113u);
  EXPECT_EQ(r.metrics.queuing_time_s.count(), 1272u);
  EXPECT_EQ(r.metrics.travel_time_s.count(), 1272u);
  EXPECT_EQ(r.metrics.queuing_time_s.mean(), 0x1.7639f656f1827p+4);  // 23.38915094
  EXPECT_EQ(r.metrics.travel_time_s.mean(), 0x1.0b67d95bc609bp+6);   // 66.85141509
  EXPECT_EQ(r.metrics.entry_blocked_time_s, 0x0p+0);
}

// The paper's 3x3 grid under pattern II and UTIL-BP, driven on the queue
// backend directly so a test can read its state between ticks.
scenario::ScenarioConfig queue_3x3_config(std::uint64_t seed, double duration_s) {
  scenario::ScenarioConfig cfg =
      scenario::paper_scenario(traffic::PatternKind::II, core::ControllerType::UtilBp);
  cfg.seed = seed;
  cfg.simulator = scenario::SimulatorKind::Queue;
  cfg.duration_s = duration_s;
  return cfg;
}

struct QueueRun {
  explicit QueueRun(const scenario::ScenarioConfig& cfg)
      : network(sim::build_validated(sim::effective_grid(cfg))),
        demand(network, cfg.demand, cfg.seed),
        queue(sim::construct_backend<queuesim::QueueSim>(
            cfg, network, demand, sim::make_run_controllers(cfg, network, nullptr))) {}

  net::Network network;
  traffic::DemandGenerator demand;
  queuesim::QueueSim queue;
};

// A queue run stepping at 0.1 s, which no binary fraction represents. A
// vehicle's queuing time is one addition of step_s per tick it spends in a
// movement queue, starting from 0.0; at this step that sum differs from the
// product K * step_s for almost every tick count K, while every other queue
// pin steps at 1.0, 2.0 or 0.5 s, where the two agree. Vehicles are still
// queued when the run ends, so the records finish() closes are in the pin
// too. Captured while every queued vehicle still accrued its time tick by
// tick.
TEST(GoldenDeterminism, QueueSimNonDyadicStepQueuingTimeIsPinned) {
  scenario::ScenarioConfig cfg = queue_3x3_config(5, 900.0);
  cfg.queue.step_s = 0.1;
  cfg.queue.control_interval_s = 1.0;
  QueueRun run(cfg);
  run.queue.run_until(cfg.duration_s);
  int queued = 0;
  for (const net::Road& road : run.network.roads()) queued += run.queue.queued_on_road(road.id);
  EXPECT_GT(queued, 0);
  const stats::RunResult r = run.queue.finish(cfg.duration_s);
  EXPECT_GT(r.metrics.in_network_at_end, 0u);
  EXPECT_EQ(r.metrics.queuing_time_s.count(), 1799u);
  EXPECT_EQ(r.metrics.travel_time_s.count(), 1799u);
  EXPECT_EQ(r.metrics.queuing_time_s.mean(), 0x1.7d88a33f7eaabp+5)  // 47.69171762
      << std::hexfloat << r.metrics.queuing_time_s.mean();
  EXPECT_EQ(r.metrics.travel_time_s.mean(), 0x1.aba6ce3917abbp+6)  // 106.91289605
      << std::hexfloat << r.metrics.travel_time_s.mean();
}

// Folds the queue state after every tick of a 3x3 run whose roads hold
// W = 10 vehicles, so downstream capacity binds. Each served vehicle frees a
// place on its upstream road, which a movement visited later in the same
// service pass may fill, so the order in which service visits the green
// movements decides who moves; the 2x2 digest in queuesim_test runs at
// W = 120. Captured while service walked junction by junction and phase link
// by phase link.
TEST(GoldenDeterminism, QueueSimBindingCapacityMidRunStateDigestIsPinned) {
  scenario::ScenarioConfig cfg = queue_3x3_config(3, 600.0);
  cfg.grid.capacity = 10;
  QueueRun run(cfg);
  StateDigest digest;
  for (int t = 1; t <= 600; ++t) {
    run.queue.run_until(static_cast<double>(t));
    fold_queue_state(digest, run.queue, run.network);
  }
  const stats::RunResult r = run.queue.finish(cfg.duration_s);
  EXPECT_EQ(r.metrics.completed, 1013u);
  EXPECT_EQ(digest.value(), 0x8913598311246688ULL) << std::hex << digest.value();
}

// Counts its decide() calls and forwards every call to the wrapped
// controller, idle_hold_until() included, so the simulator skips the same
// decisions it would skip for the wrapped controller alone.
class DecisionCounter final : public core::SignalController {
 public:
  DecisionCounter(core::ControllerPtr inner, std::uint64_t& decisions)
      : inner_(std::move(inner)), decisions_(decisions) {}
  net::PhaseIndex decide(const core::IntersectionObservation& obs) override {
    ++decisions_;
    return inner_->decide(obs);
  }
  double idle_hold_until() const override { return inner_->idle_hold_until(); }
  void reset() override { inner_->reset(); }
  std::string name() const override { return inner_->name(); }

 private:
  core::ControllerPtr inner_;
  std::uint64_t& decisions_;
};

// The sparse 16x16 run of the micro pins above on the queue backend: the
// same fold as the binding-capacity pin after every tick of 300 s from empty
// under light pattern I demand, where most junctions have no vehicle queued
// on any approach at any tick. The value predates the queue sim's idle
// decision skip, which must be invisible. The decision count shows that the
// skip applies: fewer than 60% of the junctions' control-step decisions are
// made.
TEST(GoldenDeterminism, QueueSimSparseMidRunStateDigestIsPinned) {
  scenario::ScenarioConfig cfg = sparse_micro_config();
  cfg.simulator = scenario::SimulatorKind::Queue;
  const net::Network network = sim::build_validated(sim::effective_grid(cfg));
  traffic::DemandGenerator demand(network, cfg.demand, cfg.seed);
  std::uint64_t decisions = 0;
  std::vector<core::ControllerPtr> controllers =
      sim::make_run_controllers(cfg, network, nullptr);
  for (core::ControllerPtr& c : controllers) {
    c = std::make_unique<DecisionCounter>(std::move(c), decisions);
  }
  queuesim::QueueSim queue =
      sim::construct_backend<queuesim::QueueSim>(cfg, network, demand, std::move(controllers));
  StateDigest digest;
  for (int t = 1; t <= 300; ++t) {
    queue.run_until(static_cast<double>(t));
    fold_queue_state(digest, queue, network);
  }
  EXPECT_EQ(digest.value(), 0x24adae6ff408ad61ULL) << std::hex << digest.value();
  const auto control_steps = static_cast<std::uint64_t>(300.0 / cfg.queue.control_interval_s);
  const std::uint64_t possible = control_steps * network.intersections().size();
  EXPECT_LT(decisions * 10, possible * 6) << decisions << " of " << possible << " decisions";
}

// perfbench's incident16_queue drill at 8x8: the queue backend, pattern II,
// UTIL-BP behind the adapting changepoint detector (an upward event switches
// the junction to the retuned g* = 0 variant), the guard recording every
// 10 s, capacity faults at factors 0.0 and 0.25, a sensor dropout and a
// controller outage, 1,800 s at seed 7. Pins the closing metrics, every
// detection event bit for bit, and every phase trace. Captured before UTIL-BP
// decided in one flat pass.
scenario::ScenarioConfig adaptive_incident_config() {
  scenario::ScenarioConfig cfg =
      scenario::paper_scenario(traffic::PatternKind::II, core::ControllerType::UtilBp);
  cfg.grid.rows = 8;
  cfg.grid.cols = 8;
  cfg.seed = kSeed;
  cfg.simulator = scenario::SimulatorKind::Queue;
  cfg.duration_s = 1800.0;
  cfg.detector.enabled = true;
  cfg.detector.adapt = true;
  cfg.guard.enabled = true;
  cfg.guard.policy = scenario::GuardPolicy::Record;
  cfg.guard.interval_s = 10.0;
  cfg.faults.capacity.push_back({{3, 4, net::Side::North}, 300.0, 1300.0, 0.0});
  cfg.faults.capacity.push_back({{5, 2, net::Side::East}, 450.0, 1200.0, 0.25});
  cfg.faults.sensors.push_back({{2, 5}, 540.0, 1080.0, core::SensorFaultKind::Dropout, 0, 0});
  cfg.faults.controllers.push_back({{6, 6}, 720.0, 1260.0});
  return cfg;
}

struct PinnedEvent {
  double time_s;
  int row;
  int col;
  int direction;
  double statistic;
  std::vector<int> links;
};

TEST(GoldenDeterminism, QueueSimAdaptiveIncidentIsPinned) {
  const stats::RunResult r = scenario::run_scenario(adaptive_incident_config());
  const stats::NetworkMetrics& m = r.metrics;
  EXPECT_EQ(m.generated, 9696u);
  EXPECT_EQ(m.entered, 9696u);
  EXPECT_EQ(m.completed, 8364u);
  EXPECT_EQ(m.in_network_at_end, 1332u);
  EXPECT_EQ(m.queuing_time_s.count(), 9696u);
  EXPECT_EQ(m.travel_time_s.count(), 9696u);
  EXPECT_EQ(m.queuing_time_s.mean(), 0x1.8f69663b24548p+6)  // 99.85292904
      << std::hexfloat << m.queuing_time_s.mean();
  EXPECT_EQ(m.travel_time_s.mean(), 0x1.c3d57de346202p+7)  // 225.91700701
      << std::hexfloat << m.travel_time_s.mean();
  EXPECT_EQ(m.entry_blocked_time_s, 0x0p+0) << std::hexfloat << m.entry_blocked_time_s;
  EXPECT_EQ(r.guard.checks, 181u);
  EXPECT_TRUE(r.guard.violations.empty());

  // Seconds in the trailing comments. Every upward event switches its
  // junction to the retuned variant; the seventh, the one downward shift,
  // switches (1, 4) back to the primary.
  const std::vector<PinnedEvent> expected = {
      {0x1.a3p+8, 2, 4, +1, 0x1.1155555555556p+4, {1, 4}},          // 419
      {0x1.fd8p+9, 2, 4, +1, 0x1.a1a8cdb6c314ep+3, {1, 2, 8}},      // 1019
      {0x1.1ccp+10, 2, 5, +1, 0x1.79eeeeeeeeeefp+5, {4, 10}},       // 1139
      {0x1.2bcp+10, 1, 4, +1, 0x1.5e44444444444p+4, {1, 7}},        // 1199
      {0x1.49cp+10, 2, 4, +1, 0x1.9333333333333p+3, {3, 5}},        // 1319
      {0x1.67cp+10, 2, 3, +1, 0x1.3422222222222p+4, {4, 10}},       // 1439
      {0x1.94cp+10, 1, 4, -1, 0x1.6a4701f796f32p+4, {1, 11}},       // 1619
      {0x1.94cp+10, 2, 4, +1, 0x1.7f48ba1d03249p+3, {7, 8}},        // 1619
      {0x1.b2cp+10, 3, 4, +1, 0x1.d688888888888p+4, {1, 4, 10}},    // 1739
  };
  EXPECT_EQ(r.detections.samples, 113940u);
  ASSERT_FALSE(r.detections.events.empty());
  ASSERT_EQ(r.detections.events.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const stats::DetectionEvent& e = r.detections.events[i];
    SCOPED_TRACE(i);
    EXPECT_EQ(e.time_s, expected[i].time_s) << std::hexfloat << e.time_s;
    EXPECT_EQ(e.row, expected[i].row);
    EXPECT_EQ(e.col, expected[i].col);
    EXPECT_EQ(e.direction, expected[i].direction);
    EXPECT_EQ(e.statistic, expected[i].statistic) << std::hexfloat << e.statistic;
    EXPECT_EQ(e.links, expected[i].links);
  }

  StateDigest traces;
  for (const stats::PhaseTrace& trace : r.phase_traces) {
    traces.add(static_cast<std::uint64_t>(trace.samples().size()));
    for (const stats::PhaseTrace::Sample& s : trace.samples()) {
      traces.add(s.time);
      traces.add(s.phase);
    }
    traces.add(trace.end_time());
  }
  EXPECT_EQ(traces.value(), 0xdca466ef41af4665ULL) << std::hex << traces.value();
}

// One run per non-identity pressure preset (Eq. 4), back-pressure controller
// and backend, on the paper's 3x3 grid under pattern I for 900 s at seed 77.
// Every pin above runs the identity mapping; these pin the other three
// presets' trajectories, set through the scenario field pressure_kind. The
// values predate the preset-only pressure mapping, which must be invisible;
// each row differs from its identity run.
struct PresetPin {
  core::PressureKind kind;
  core::ControllerType type;
  scenario::SimulatorKind sim;
  std::size_t entered;
  std::size_t completed;
  int transitions;
  double queuing_mean;
  double travel_mean;
};

constexpr scenario::SimulatorKind kMicro = scenario::SimulatorKind::Micro;
constexpr scenario::SimulatorKind kQueue = scenario::SimulatorKind::Queue;
constexpr core::PressureKind kSqrt = core::PressureKind::Sqrt;
constexpr core::PressureKind kQuadratic = core::PressureKind::Quadratic;
constexpr core::PressureKind kNormalized = core::PressureKind::Normalized;
constexpr core::ControllerType kUtil = core::ControllerType::UtilBp;
constexpr core::ControllerType kCap = core::ControllerType::CapBp;
constexpr core::ControllerType kOrig = core::ControllerType::OriginalBp;

constexpr PresetPin kPresetPins[] = {
    {kSqrt, kUtil, kMicro, 2099, 1713, 713, 0x1.3538399103897p+5, 0x1.f2fb7cc49aa62p+6},
    {kSqrt, kUtil, kQueue, 2101, 1848, 1047, 0x1.35875f298cbbap+5, 0x1.7bc8ecdebc6p+6},
    {kSqrt, kCap, kMicro, 2073, 1616, 418, 0x1.c08dc4f8778a7p+5, 0x1.2702b7828816cp+7},
    {kSqrt, kCap, kQueue, 2101, 1808, 472, 0x1.a37804dfb5eadp+5, 0x1.b12375183f5c4p+6},
    {kSqrt, kOrig, kMicro, 2094, 1078, 261, 0x1.2dacfd4f77135p+7, 0x1.b6fadd863c262p+7},
    {kSqrt, kOrig, kQueue, 2101, 1175, 253, 0x1.4501571ed3c5p+7, 0x1.a14a3464e39c1p+7},
    {kQuadratic, kUtil, kMicro, 2099, 1690, 728, 0x1.56ca36e21e7dap+5, 0x1.01e143eeecda1p+7},
    {kQuadratic, kUtil, kQueue, 2101, 1826, 1068, 0x1.5012854ce2a29p+5, 0x1.87eb0ad827f74p+6},
    {kQuadratic, kCap, kMicro, 2101, 1644, 399, 0x1.c6a384b0ebe53p+5, 0x1.207a1726a01b5p+7},
    {kQuadratic, kCap, kQueue, 2101, 1802, 468, 0x1.99e9562548fc7p+5, 0x1.abf1dda3a3e24p+6},
    {kQuadratic, kOrig, kMicro, 2101, 1217, 305, 0x1.0d6c525e4f335p+7, 0x1.9b942a6715146p+7},
    {kQuadratic, kOrig, kQueue, 2101, 1314, 296, 0x1.1c854ce2a28b2p+7, 0x1.7cdcc94a72c79p+7},
    {kNormalized, kUtil, kMicro, 2100, 1698, 734, 0x1.375ca5ca5ca5dp+5, 0x1.f881f3526859cp+6},
    {kNormalized, kUtil, kQueue, 2101, 1838, 1054, 0x1.3a690829ea4fbp+5, 0x1.7dd3e4380cac1p+6},
    {kNormalized, kCap, kMicro, 2101, 1648, 396, 0x1.c25cd8e31f509p+5, 0x1.1f99294e58f2bp+7},
    {kNormalized, kCap, kQueue, 2101, 1804, 471, 0x1.a29bb85aa76aep+5, 0x1.b07112e2e0edep+6},
    {kNormalized, kOrig, kMicro, 2092, 1161, 287, 0x1.1968bfe0ac4c6p+7, 0x1.a92c2d08523bbp+7},
    {kNormalized, kOrig, kQueue, 2101, 1198, 263, 0x1.34118bc21a134p+7, 0x1.911c25875f299p+7},
};

TEST(GoldenDeterminism, PressurePresetsArePinned) {
  for (const PresetPin& pin : kPresetPins) {
    scenario::ScenarioConfig cfg = scenario::paper_scenario(traffic::PatternKind::I, pin.type);
    cfg.duration_s = 900.0;
    cfg.seed = 77;
    cfg.simulator = pin.sim;
    cfg.controller.util.pressure_kind = pin.kind;
    cfg.controller.fixed_slot.pressure_kind = pin.kind;
    const auto r = scenario::run_scenario(cfg);
    int transitions = 0;
    for (const stats::PhaseTrace& trace : r.phase_traces) {
      transitions += trace.transition_count();
    }
    SCOPED_TRACE(core::pressure_kind_name(pin.kind) + " " +
                 core::controller_type_name(pin.type) +
                 (pin.sim == kMicro ? " micro" : " queue"));
    EXPECT_EQ(r.metrics.entered, pin.entered);
    EXPECT_EQ(r.metrics.completed, pin.completed);
    EXPECT_EQ(transitions, pin.transitions);
    EXPECT_EQ(r.metrics.queuing_time_s.mean(), pin.queuing_mean)
        << std::hexfloat << r.metrics.queuing_time_s.mean();
    EXPECT_EQ(r.metrics.travel_time_s.mean(), pin.travel_mean)
        << std::hexfloat << r.metrics.travel_time_s.mean();
  }
}

}  // namespace
}  // namespace abp
