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
// streams (StreamRng), so the pins additionally assert that the micro sim's
// parallel lane sweep is bit-identical at every thread count — the
// ThreadInvariance test runs the same fixed seed at 1, 2 and 8
// MicroSimConfig::threads and demands equal metrics to the last bit.
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

#include "src/scenario/scenario.hpp"

namespace abp {
namespace {

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

// The parallel sweep must be invisible in the results: same seed, same
// metrics, bit for bit, at every thread count. Work is partitioned by road
// with per-road counter-based dawdle streams, completions are applied in
// exit-road order, and everything cross-road runs in the sequential junction
// phase — so the thread count may only change wall-clock time. Eight threads
// on a smaller machine exercises chunk counts above the core count.
TEST(GoldenDeterminism, MicroSimThreadInvariance) {
  scenario::ScenarioConfig base = golden_config(scenario::SimulatorKind::Micro);
  const auto serial = scenario::run_scenario(base);
  for (int threads : {2, 8}) {
    scenario::ScenarioConfig cfg = base;
    cfg.micro.threads = threads;
    const auto parallel = scenario::run_scenario(cfg);
    SCOPED_TRACE(threads);
    expect_identical(serial.metrics, parallel.metrics);
  }
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

}  // namespace
}  // namespace abp
