// Scenario library gate: every file under scenarios/ must load cleanly,
// round-trip byte-stably, reproduce its golden pin bit-for-bit, and pass the
// cross-backend invariant guard. ABP_SCENARIO_DIR is injected by CMake; regenerate
// scenarios/golden_pins.json with bench/scenario_pin_capture.cpp when a
// change is supposed to move trajectories.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/experiment_runner.hpp"
#include "src/scenario/scenario.hpp"
#include "src/scenario/scenario_io.hpp"
#include "src/stats/run_result.hpp"
#include "src/util/json.hpp"

namespace abp::scenario {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> LibraryFiles() {
  std::vector<fs::path> files;
  for (const fs::directory_entry& e : fs::directory_iterator(ABP_SCENARIO_DIR)) {
    if (e.path().extension() == ".json" && e.path().filename() != "golden_pins.json") {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string ReadFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(ScenarioLibraryTest, LibraryIsPresent) {
  EXPECT_GE(LibraryFiles().size(), 6u);
}

TEST(ScenarioLibraryTest, EveryFileLoadsAndRoundTripsByteStably) {
  for (const fs::path& file : LibraryFiles()) {
    SCOPED_TRACE(file.filename().string());
    const ScenarioConfig cfg = load_scenario_file(file.string());
    // The name keys the golden pins, so it must match the filename.
    EXPECT_EQ(cfg.name, file.stem().string());
    EXPECT_FALSE(cfg.description.empty());
    const std::string canonical = dump_scenario(cfg);
    EXPECT_EQ(dump_scenario(load_scenario(canonical)), canonical);
  }
}

TEST(ScenarioLibraryTest, GoldenPinsMatchBitForBit) {
  const json::Value pins = json::parse(ReadFile(fs::path(ABP_SCENARIO_DIR) / "golden_pins.json"));
  ASSERT_TRUE(pins.is_object());
  std::size_t pinned = 0;
  for (const fs::path& file : LibraryFiles()) {
    SCOPED_TRACE(file.filename().string());
    const ScenarioConfig cfg = load_scenario_file(file.string());
    const json::Value* pin = pins.find(cfg.name);
    ASSERT_NE(pin, nullptr) << "no golden pin for " << cfg.name
                            << "; regenerate with scenario_pin_capture";
    ++pinned;
    const stats::RunResult r = run_scenario(cfg);
    EXPECT_EQ(r.metrics.generated,
              static_cast<std::size_t>(pin->find("generated")->as_uint64()));
    EXPECT_EQ(r.metrics.entered,
              static_cast<std::size_t>(pin->find("entered")->as_uint64()));
    EXPECT_EQ(r.metrics.completed,
              static_cast<std::size_t>(pin->find("completed")->as_uint64()));
    EXPECT_EQ(r.metrics.in_network_at_end,
              static_cast<std::size_t>(pin->find("in_network_at_end")->as_uint64()));
    // Hex-float pins compare exactly: no tolerance, any drift is a failure.
    EXPECT_EQ(r.metrics.average_queuing_time_s(),
              std::strtod(pin->find("avg_queuing_s_hex")->as_string().c_str(), nullptr));
    EXPECT_EQ(r.metrics.average_travel_time_s(),
              std::strtod(pin->find("avg_travel_s_hex")->as_string().c_str(), nullptr));
    EXPECT_EQ(r.guard.violations.size(),
              static_cast<std::size_t>(pin->find("guard_violations")->as_uint64()));
  }
  // Every pin corresponds to a live file too (no stale entries).
  EXPECT_EQ(pins.members().size(), pinned);
}

TEST(ScenarioLibraryTest, OtherBackendPassesTheInvariantGuard) {
  // Cross-sim pass: each scenario briefly on the backend it was NOT written
  // for, with the runtime guard recording — conservation and capacity bounds
  // must hold for the translated workload too.
  for (const fs::path& file : LibraryFiles()) {
    SCOPED_TRACE(file.filename().string());
    ScenarioConfig cfg = load_scenario_file(file.string());
    cfg.simulator = cfg.simulator == SimulatorKind::Micro ? SimulatorKind::Queue
                                                          : SimulatorKind::Micro;
    cfg.duration_s = std::min(cfg.duration_s, 300.0);
    cfg.guard.enabled = true;
    cfg.guard.policy = GuardPolicy::Record;
    cfg.guard.interval_s = 5.0;
    const stats::RunResult r = run_scenario(cfg);
    EXPECT_GT(r.guard.checks, 0u);
    EXPECT_TRUE(r.guard.violations.empty())
        << r.guard.violations.front().message;
  }
}

TEST(ScenarioLibraryTest, BatchReplicationsMatchSerialRuns) {
  // The ExperimentRunner path the CLI's --scenario --replications mode uses:
  // per-seed batch results must be bit-identical to serial runs of the same
  // derived configs.
  ScenarioConfig cfg =
      load_scenario_file((fs::path(ABP_SCENARIO_DIR) / "baseline_3x3.json").string());
  cfg.duration_s = 300.0;
  const std::vector<ScenarioConfig> configs = exp::replication_configs(cfg, 3);
  exp::ExperimentRunner runner({.jobs = 2, .allow_oversubscribe = true});
  const std::vector<stats::RunResult> batch = runner.run(configs);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const stats::RunResult serial = run_scenario(configs[i]);
    EXPECT_EQ(serial.metrics.completed, batch[i].metrics.completed);
    EXPECT_EQ(serial.metrics.average_queuing_time_s(),
              batch[i].metrics.average_queuing_time_s());
  }
}

}  // namespace
}  // namespace abp::scenario
