// End-to-end gate for the online changepoint subsystem: the detection-event
// stream of the library's incident scenario is pinned exactly, the clean
// baseline must stay alarm-free over a full hour, and the event stream must
// carry every determinism guarantee of the repository (batch-vs-serial
// bit-equality, monitor passivity). Regenerate the pin below
// from `abp_cli --scenario scenarios/incident_detection.json` when a change
// is supposed to move detection trajectories.
#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "src/exp/experiment_runner.hpp"
#include "src/scenario/scenario.hpp"
#include "src/scenario/scenario_io.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/run_result.hpp"

namespace abp::scenario {
namespace {

namespace fs = std::filesystem;

ScenarioConfig Load(const char* name) {
  return load_scenario_file((fs::path(ABP_SCENARIO_DIR) / name).string());
}

void ExpectSameEvents(const stats::DetectionReport& a, const stats::DetectionReport& b) {
  EXPECT_EQ(a.samples, b.samples);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.events[i].time_s, b.events[i].time_s);
    EXPECT_EQ(a.events[i].row, b.events[i].row);
    EXPECT_EQ(a.events[i].col, b.events[i].col);
    EXPECT_EQ(a.events[i].direction, b.events[i].direction);
    EXPECT_EQ(a.events[i].statistic, b.events[i].statistic);
    EXPECT_EQ(a.events[i].links, b.events[i].links);
  }
}

TEST(ChangepointTest, IncidentDetectionEventsArePinnedExactly) {
  // Golden pin of the fused event stream on the library incident scenario.
  // The center closure starts at t=600 s; the first fused event lands three
  // detection windows later — the bounded-delay acceptance bar.
  const stats::RunResult r = run_scenario(Load("incident_detection.json"));
  struct Expected {
    double time_s;
    int row, col, direction;
    std::vector<int> links;
  };
  const std::vector<Expected> expected = {
      {779.0, 1, 2, +1, {1, 4, 7}},
      {1079.0, 1, 2, +1, {6, 10}},
      {1379.0, 1, 2, +1, {1, 5}},
      {1559.0, 0, 2, +1, {7, 8}},
      {1679.0, 1, 1, +1, {4, 5}},
  };
  EXPECT_EQ(r.detections.samples, 16200u);
  ASSERT_EQ(r.detections.events.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(r.detections.events[i].time_s, expected[i].time_s);
    EXPECT_EQ(r.detections.events[i].row, expected[i].row);
    EXPECT_EQ(r.detections.events[i].col, expected[i].col);
    EXPECT_EQ(r.detections.events[i].direction, expected[i].direction);
    EXPECT_EQ(r.detections.events[i].links, expected[i].links);
    EXPECT_GT(r.detections.events[i].statistic, 10.0);  // the config threshold
  }
}

TEST(ChangepointTest, CleanBaselineRaisesNoAlarms) {
  // False-alarm gate: the stationary hour-long baseline with the detector at
  // its defaults must stay completely quiet.
  ScenarioConfig cfg = Load("baseline_3x3.json");
  cfg.detector.enabled = true;
  const stats::RunResult r = run_scenario(cfg);
  EXPECT_GT(r.detections.samples, 0u);
  EXPECT_TRUE(r.detections.events.empty());
}

TEST(ChangepointTest, MonitorOnlyDetectorIsPassive) {
  // With adapt off the monitor observes the same readings the controller
  // consumes and must not perturb the trajectory: metrics bit-identical to
  // the detector-free run.
  ScenarioConfig cfg = Load("incident_detection.json");
  cfg.detector.adapt = false;
  const stats::RunResult watched = run_scenario(cfg);
  cfg.detector.enabled = false;
  const stats::RunResult plain = run_scenario(cfg);
  EXPECT_EQ(watched.metrics.completed, plain.metrics.completed);
  EXPECT_EQ(watched.metrics.average_queuing_time_s(),
            plain.metrics.average_queuing_time_s());
  EXPECT_EQ(watched.metrics.average_travel_time_s(),
            plain.metrics.average_travel_time_s());
  EXPECT_FALSE(watched.detections.events.empty());
  EXPECT_TRUE(plain.detections.events.empty());
  EXPECT_EQ(plain.detections.samples, 0u);
}

TEST(ChangepointTest, MakeSimulatorValidatesAnEnabledDetector) {
  // Programmatic configs bypass the loader, so make_simulator runs the
  // loader's validator itself, with the same path-addressed messages, on
  // every section: a disabled detector must still be one the loader accepts,
  // since dump_scenario writes it.
  ScenarioConfig cfg = Load("baseline_3x3.json");
  cfg.detector.window_samples = 0;
  for (const bool enabled : {false, true}) {
    cfg.detector.enabled = enabled;
    try {
      (void)sim::make_simulator(cfg);
      FAIL() << "expected ScenarioIoError";
    } catch (const ScenarioIoError& e) {
      EXPECT_STREQ(e.what(), "detector.window_samples: must be >= 1");
    }
  }
}

TEST(ChangepointTest, BatchReplicationsMatchSerialRunsWithActiveDetector) {
  ScenarioConfig cfg = Load("incident_detection.json");
  cfg.duration_s = 900.0;
  const std::vector<ScenarioConfig> configs = exp::replication_configs(cfg, 3);
  exp::ExperimentRunner runner({.jobs = 2, .allow_oversubscribe = true});
  const std::vector<stats::RunResult> batch = runner.run(configs);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(i);
    const stats::RunResult serial = run_scenario(configs[i]);
    EXPECT_EQ(serial.metrics.completed, batch[i].metrics.completed);
    EXPECT_EQ(serial.metrics.average_queuing_time_s(),
              batch[i].metrics.average_queuing_time_s());
    ExpectSameEvents(serial.detections, batch[i].detections);
  }
}

TEST(ChangepointTest, AdaptationRecoversDelayOnTheIncident) {
  // The closed loop must beat the oblivious controller on the incident
  // workload — the re-tune targets exactly this capacity-loss regime.
  ScenarioConfig cfg = Load("incident_detection.json");
  ASSERT_TRUE(cfg.detector.adapt);
  const stats::RunResult adaptive = run_scenario(cfg);
  cfg.detector.adapt = false;
  const stats::RunResult oblivious = run_scenario(cfg);
  EXPECT_LT(adaptive.metrics.average_queuing_time_s(),
            oblivious.metrics.average_queuing_time_s());
}

TEST(ChangepointTest, QueueBackendDetectsTheSurge) {
  // Same subsystem on the other backend: the stadium burst at t=2700 s must
  // register within a few detection windows, and nothing may fire before it.
  const stats::RunResult r = run_scenario(Load("surge_detection.json"));
  ASSERT_FALSE(r.detections.events.empty());
  const stats::DetectionEvent& first = r.detections.events.front();
  EXPECT_GT(first.time_s, 2700.0);
  EXPECT_LE(first.time_s, 3000.0);
  EXPECT_EQ(first.direction, +1);
}

}  // namespace
}  // namespace abp::scenario
