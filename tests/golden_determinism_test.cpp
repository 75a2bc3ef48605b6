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

#include <bit>
#include <cstdint>
#include <vector>

#include "src/microsim/micro_sim.hpp"
#include "src/scenario/scenario.hpp"
#include "src/sim/run_setup.hpp"

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

// FNV-1a over 64-bit words, for folding a run's state into one pinnable value.
class StateDigest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(int value) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(value))); }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Folds the observable state after every tick of a sparse micro run: a 16x16
// grid (1,088 roads) under light pattern I demand, 300 s from empty, with the
// default perfect sensor, so most junctions and roads are idle at any tick and
// roads keep filling and draining. The state is vehicles in the network,
// every road's occupancy and queued count, every displayed phase and every
// lane's vehicle positions.
std::uint64_t sparse_micro_state_digest(int threads) {
  scenario::ScenarioConfig cfg =
      scenario::paper_scenario(traffic::PatternKind::I, core::ControllerType::UtilBp);
  cfg.grid.rows = 16;
  cfg.grid.cols = 16;
  cfg.seed = kSeed;
  cfg.simulator = scenario::SimulatorKind::Micro;
  cfg.micro.threads = threads;
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
// the sweep's active-road bitmap, so the sweep never splits. This pin covers
// the sparse regime, where the tick skips empty roads and idle junctions and
// 17 bitmap words split across the sweep threads, tick by tick rather than
// only at the end of the run. The value predates the active-set tick: the
// skips must be invisible.
TEST(GoldenDeterminism, MicroSimSparseMidRunStateDigestIsPinned) {
  for (int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    const std::uint64_t digest = sparse_micro_state_digest(threads);
    EXPECT_EQ(digest, 0xe5435e00bcad631cULL) << std::hex << digest;
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
