// Memo-table rebuild elision pin (ROADMAP single-core frontier).
//
// The control-step memo tables (queued counts per road and per link) used to
// be rebuilt from a global zero of every row before each control boundary.
// The elided path instead zeroes rows per road, only for the roads in the
// sweep's active-road bitmap: a road's bit is set whenever its occupancy
// rises and cleared only on a rebuild tick, after its rows are re-zeroed with
// the road empty, so a clear bit means an empty road with zero rows — the
// common case on large grids, skipped entirely. These tests pin the elided
// path bit-identical to the retained always-rebuild reference
// (MicroSimConfig::memo_always_rebuild) over full runs whose roads repeatedly
// drain and refill, so stale-row bugs cannot hide: a bit cleared while a row
// is still nonzero would feed a wrong queue reading to the next controller
// decision and shift every downstream phase choice.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/scenario/scenario.hpp"
#include "tests/result_compare.hpp"

namespace abp {
namespace {

scenario::ScenarioConfig elision_config(traffic::PatternKind pattern, std::uint64_t seed,
                                        int grid_size = 3) {
  scenario::ScenarioConfig cfg =
      scenario::paper_scenario(pattern, core::ControllerType::UtilBp);
  cfg.grid.rows = grid_size;
  cfg.grid.cols = grid_size;
  cfg.seed = seed;
  cfg.simulator = scenario::SimulatorKind::Micro;
  // Long enough that light-demand roads drain to empty and refill many times
  // — each transition exercises the bit clear and re-set.
  cfg.duration_s = 900.0;
  return cfg;
}

void expect_paths_identical(scenario::ScenarioConfig cfg) {
  cfg.micro.memo_always_rebuild = false;
  const stats::RunResult elided = scenario::run_scenario(cfg);
  cfg.micro.memo_always_rebuild = true;
  const stats::RunResult rebuilt = scenario::run_scenario(cfg);
  testing::expect_results_identical(elided, rebuilt);
}

TEST(MemoElision, BitIdenticalToAlwaysRebuildLightDemand) {
  // Pattern I is light: most roads are empty at most control boundaries, so
  // nearly every rebuild takes the elision path.
  expect_paths_identical(elision_config(traffic::PatternKind::I, 11));
}

TEST(MemoElision, BitIdenticalToAlwaysRebuildHeavyDemand) {
  // Pattern III saturates the grid: roads churn in and out of the active set
  // under spillback, the adversarial case for stale rows.
  expect_paths_identical(elision_config(traffic::PatternKind::III, 12));
}

TEST(MemoElision, BitIdenticalWithImperfectSensor) {
  // Imperfect detectors tie the sensor RNG stream to every queue reading:
  // any memo drift desynchronizes the sensor stream and cascades through the
  // rest of the run. A 5x5 grid has 120 roads, two bitmap words, so the
  // sweep's walk crosses a word boundary and clears bits in both words (a
  // 3x3 grid fits in one word).
  scenario::ScenarioConfig cfg = elision_config(traffic::PatternKind::II, 13, 5);
  cfg.micro.sensor.detection_probability = 0.95;
  cfg.micro.sensor.dropout_probability = 0.01;
  expect_paths_identical(cfg);
}

}  // namespace
}  // namespace abp
