// Experiment-runner suite: batch-vs-serial determinism, seed derivation, the
// oversubscription guard, failure isolation, and the per-batch threads.
//
// The headline property (pinned under the `invariance` ctest label, so CI
// re-runs it under TSan): an ExperimentRunner batch over mixed configs —
// both backends, several controllers, imperfect micro sensors so RNG stream
// consumption is load-bearing — is bit-identical to a serial run_scenario
// loop over the same configs, at every jobs count. A run's result may depend
// only on its own config, never on scheduling.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <system_error>
#include <thread>
#include <vector>

#include "src/exp/experiment_runner.hpp"
#include "src/scenario/scenario.hpp"
#include "src/stats/student_t.hpp"

namespace abp {
namespace {

void expect_identical(const stats::NetworkMetrics& a, const stats::NetworkMetrics& b) {
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.entered, b.entered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.in_network_at_end, b.in_network_at_end);
  EXPECT_EQ(a.queuing_time_s.count(), b.queuing_time_s.count());
  EXPECT_EQ(a.travel_time_s.count(), b.travel_time_s.count());
  // Exact double equality on purpose: batch execution must preserve the
  // serial arithmetic bit for bit, not approximately.
  EXPECT_EQ(a.queuing_time_s.mean(), b.queuing_time_s.mean());
  EXPECT_EQ(a.travel_time_s.mean(), b.travel_time_s.mean());
  EXPECT_EQ(a.entry_blocked_time_s, b.entry_blocked_time_s);
}

// A deliberately heterogeneous batch: both backends, three controllers, two
// patterns, distinct seeds, and micro sensor imperfection tying the RNG
// stream to every queue reading.
std::vector<scenario::ScenarioConfig> mixed_batch() {
  std::vector<scenario::ScenarioConfig> configs;
  const struct {
    traffic::PatternKind pattern;
    core::ControllerType type;
    scenario::SimulatorKind sim;
    std::uint64_t seed;
  } cases[] = {
      {traffic::PatternKind::II, core::ControllerType::UtilBp,
       scenario::SimulatorKind::Micro, 11},
      {traffic::PatternKind::I, core::ControllerType::CapBp,
       scenario::SimulatorKind::Queue, 22},
      {traffic::PatternKind::II, core::ControllerType::FixedTime,
       scenario::SimulatorKind::Queue, 33},
      {traffic::PatternKind::I, core::ControllerType::UtilBp,
       scenario::SimulatorKind::Micro, 44},
      {traffic::PatternKind::II, core::ControllerType::CapBp,
       scenario::SimulatorKind::Micro, 55},
  };
  for (const auto& c : cases) {
    scenario::ScenarioConfig cfg = scenario::paper_scenario(c.pattern, c.type);
    cfg.grid.rows = 2;
    cfg.grid.cols = 2;
    cfg.duration_s = 300.0;
    cfg.seed = c.seed;
    cfg.simulator = c.sim;
    if (c.sim == scenario::SimulatorKind::Micro) {
      cfg.micro.sensor.detection_probability = 0.95;
      cfg.micro.sensor.dropout_probability = 0.01;
    }
    configs.push_back(cfg);
  }
  return configs;
}

TEST(ExperimentRunner, BatchIsBitIdenticalToSerialLoopAtEveryJobsCount) {
  const std::vector<scenario::ScenarioConfig> configs = mixed_batch();

  std::vector<stats::RunResult> serial;
  serial.reserve(configs.size());
  for (const scenario::ScenarioConfig& cfg : configs) {
    serial.push_back(scenario::run_scenario(cfg));
  }

  for (int jobs : {1, 2, 8}) {
    SCOPED_TRACE(jobs);
    // allow_oversubscribe: jobs above the core count is exactly the point —
    // scheduling must not be able to show up in the results.
    exp::ExperimentRunner runner({.jobs = jobs, .allow_oversubscribe = true});
    const std::vector<stats::RunResult> batch = runner.run(configs);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE(i);
      expect_identical(serial[i].metrics, batch[i].metrics);
      EXPECT_EQ(serial[i].phase_traces.size(), batch[i].phase_traces.size());
      // The sampled occupancy series too, value for value — aggregate
      // accumulators could mask a scheduling-sensitive sampling defect.
      ASSERT_EQ(serial[i].in_network_series.size(), batch[i].in_network_series.size());
      EXPECT_EQ(serial[i].in_network_series.times(), batch[i].in_network_series.times());
      EXPECT_EQ(serial[i].in_network_series.values(),
                batch[i].in_network_series.values());
    }
  }
}

TEST(ExperimentRunner, ReplicationConfigsDeriveSeedsInOrder) {
  scenario::ScenarioConfig base =
      scenario::paper_scenario(traffic::PatternKind::I, core::ControllerType::UtilBp);
  base.seed = 1000;
  base.duration_s = 123.0;
  const auto configs = exp::replication_configs(base, 4);
  ASSERT_EQ(configs.size(), 4u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(configs[i].seed, 1000u + i);
    // Everything except the seed is the base config, copied verbatim.
    EXPECT_DOUBLE_EQ(configs[i].duration_s, 123.0);
    EXPECT_EQ(configs[i].demand.pattern, traffic::PatternKind::I);
  }
  EXPECT_THROW((void)exp::replication_configs(base, 0), exp::BatchError);
}

TEST(ExperimentRunner, ReplicationCountIsBounded) {
  const scenario::ScenarioConfig base;
  EXPECT_EQ(exp::replication_configs(base, exp::kMaxReplications).size(),
            static_cast<std::size_t>(exp::kMaxReplications));
  try {
    (void)exp::replication_configs(base, 2000000000);
    FAIL() << "expected BatchError";
  } catch (const exp::BatchError& e) {
    EXPECT_EQ(std::string(e.what()), "replications: 2000000000 is outside [1, 10000]");
  }
}

TEST(ExperimentRunner, EmptyBatchReturnsEmpty) {
  exp::ExperimentRunner runner({.jobs = 2, .allow_oversubscribe = true});
  EXPECT_TRUE(runner.run({}).empty());
}

TEST(ExperimentRunner, RejectsInvalidJobs) {
  EXPECT_THROW(exp::ExperimentRunner({.jobs = 0}), std::invalid_argument);
}

TEST(ExperimentRunner, OversubscriptionGuardRejectsMoreJobsThanCores) {
  const unsigned hc = std::thread::hardware_concurrency();
  if (hc == 0) GTEST_SKIP() << "hardware concurrency unknown; guard is inactive";
  scenario::ScenarioConfig cfg =
      scenario::paper_scenario(traffic::PatternKind::I, core::ControllerType::UtilBp);
  cfg.duration_s = 10.0;
  // One run in flight more than the machine has cores.
  const int jobs = static_cast<int>(hc) + 1;
  const std::vector<scenario::ScenarioConfig> configs(static_cast<std::size_t>(jobs), cfg);
  exp::ExperimentRunner runner({.jobs = jobs});
  EXPECT_THROW((void)runner.run(configs), exp::BatchError);

  // The guard judges effective concurrency, not the configured jobs ceiling:
  // a single-config batch can never have two runs in flight, so the same
  // runner accepts it.
  EXPECT_EQ(runner.run({cfg}).size(), 1u);

  // And the full batch runs when the caller opts in explicitly.
  exp::ExperimentRunner permissive({.jobs = jobs, .allow_oversubscribe = true});
  EXPECT_EQ(permissive.run(configs).size(), configs.size());
}

TEST(ExperimentRunner, MaxSafeJobsIsTheCoreCount) {
  const unsigned hc = std::thread::hardware_concurrency();
  EXPECT_EQ(exp::max_safe_jobs(), hc == 0 ? 1 : static_cast<int>(hc));
}

// --- Failure isolation: per-run statuses ---

scenario::ScenarioConfig quick_queue_config(std::uint64_t seed, double duration_s) {
  scenario::ScenarioConfig cfg =
      scenario::paper_scenario(traffic::PatternKind::II, core::ControllerType::UtilBp);
  cfg.grid.rows = 2;
  cfg.grid.cols = 2;
  cfg.simulator = scenario::SimulatorKind::Queue;
  cfg.seed = seed;
  cfg.duration_s = duration_s;
  return cfg;
}

// A config whose construction throws: the watch names a junction outside the
// grid, so make_simulator raises std::invalid_argument.
scenario::ScenarioConfig throwing_config() {
  scenario::ScenarioConfig cfg = quick_queue_config(7, 60.0);
  cfg.watches.push_back({.row = 99, .col = 99, .side = net::Side::East, .name = "bad"});
  return cfg;
}

// A batch with a throwing run between two healthy ones completes both
// siblings and reports a per-run status for each, in batch order.
TEST(ExperimentRunner, MixedBatchIsolatesFailuresAndReportsPerRunStatuses) {
  const std::vector<scenario::ScenarioConfig> configs = {
      quick_queue_config(11, 120.0), throwing_config(), quick_queue_config(13, 120.0)};

  for (int jobs : {1, 3}) {
    SCOPED_TRACE(jobs);
    exp::ExperimentRunner runner({.jobs = jobs, .allow_oversubscribe = true});
    const std::vector<exp::RunStatus> statuses = runner.run_statuses(configs);
    ASSERT_EQ(statuses.size(), 3u);

    for (std::size_t i : {0u, 2u}) {
      SCOPED_TRACE(i);
      EXPECT_TRUE(statuses[i].ok());
      EXPECT_GT(statuses[i].result.metrics.completed, 0u);
      EXPECT_TRUE(statuses[i].error.empty());
    }

    EXPECT_FALSE(statuses[1].ok());
    EXPECT_FALSE(statuses[1].error.empty());
    EXPECT_EQ(statuses[1].result.metrics.generated, 0u);
    // The captured exception keeps its original type.
    EXPECT_THROW(std::rethrow_exception(statuses[1].exception), std::invalid_argument);
  }
}

TEST(ExperimentRunner, RunRethrowsFirstBatchOrderErrorWithOriginalType) {
  exp::ExperimentRunner runner({.jobs = 2, .allow_oversubscribe = true});
  const std::vector<scenario::ScenarioConfig> configs = {quick_queue_config(11, 60.0),
                                                         throwing_config()};
  EXPECT_THROW((void)runner.run(configs), std::invalid_argument);
}

// --- Threads: started per batch, all joined before it returns ---

// This process's thread count, or -1 where /proc/self/task is absent.
int thread_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  return static_cast<int>(std::distance(it, std::filesystem::directory_iterator{}));
}

// The thread count once it is at most `limit`, waiting up to two seconds: a
// joined thread can stay listed for a moment after its join returns.
int thread_count_within(int limit) {
  int n = thread_count();
  for (int waited_ms = 0; n > limit && waited_ms < 2000; ++waited_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    n = thread_count();
  }
  return n;
}

TEST(ExperimentRunner, StartsThreadsOnlyForABatchAndJoinsThemAll) {
  const int before = thread_count();
  if (before < 0) GTEST_SKIP() << "/proc/self/task is absent";
  exp::ExperimentRunner runner({.jobs = 64, .allow_oversubscribe = true});
  EXPECT_LE(thread_count(), before);

  const std::vector<scenario::ScenarioConfig> configs = {
      quick_queue_config(1, 10.0), quick_queue_config(2, 10.0), quick_queue_config(3, 10.0),
      quick_queue_config(4, 10.0)};
  for (const exp::RunStatus& status : runner.run_statuses(configs)) {
    EXPECT_TRUE(status.ok());
  }
  EXPECT_LE(thread_count_within(before), before);
}

TEST(ExperimentRunner, OneRunnerServesManyBatches) {
  const std::vector<scenario::ScenarioConfig> configs = {
      quick_queue_config(1, 10.0), quick_queue_config(2, 10.0), quick_queue_config(3, 10.0)};
  exp::ExperimentRunner runner({.jobs = 3, .allow_oversubscribe = true});
  const std::vector<exp::RunStatus> first = runner.run_statuses(configs);
  ASSERT_EQ(first.size(), configs.size());
  for (const exp::RunStatus& status : first) ASSERT_TRUE(status.ok());
  for (int batch = 1; batch < 200; ++batch) {
    SCOPED_TRACE(batch);
    const std::vector<exp::RunStatus> again = runner.run_statuses(configs);
    ASSERT_EQ(again.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      ASSERT_TRUE(again[i].ok());
      expect_identical(first[i].result.metrics, again[i].result.metrics);
    }
  }
}

TEST(ExperimentRunner, RunReplicationsMatchesSerialAndUsesStudentT) {
  scenario::ScenarioConfig cfg =
      scenario::paper_scenario(traffic::PatternKind::II, core::ControllerType::UtilBp);
  cfg.grid.rows = 2;
  cfg.grid.cols = 2;
  cfg.duration_s = 300.0;
  cfg.simulator = scenario::SimulatorKind::Queue;
  cfg.seed = 500;
  constexpr int kReps = 4;

  const scenario::ReplicationSummary serial = scenario::run_replications(cfg, kReps);
  const scenario::ReplicationSummary parallel =
      scenario::run_replications(cfg, kReps, /*jobs=*/2, /*allow_oversubscribe=*/true);

  ASSERT_EQ(serial.avg_queuing_times_s.size(), static_cast<std::size_t>(kReps));
  ASSERT_EQ(parallel.avg_queuing_times_s.size(), static_cast<std::size_t>(kReps));
  for (int i = 0; i < kReps; ++i) {
    EXPECT_EQ(serial.avg_queuing_times_s[i], parallel.avg_queuing_times_s[i]) << i;
  }
  EXPECT_EQ(serial.mean_s, parallel.mean_s);
  EXPECT_EQ(serial.stddev_s, parallel.stddev_s);
  EXPECT_EQ(serial.ci95_halfwidth_s, parallel.ci95_halfwidth_s);

  // The CI half-width is the Student-t critical value (df = n - 1), not the
  // normal 1.96 — anti-conservative at replication counts this small.
  const double expected = stats::student_t_quantile(0.975, kReps - 1) * serial.stddev_s /
                          std::sqrt(static_cast<double>(kReps));
  EXPECT_DOUBLE_EQ(serial.ci95_halfwidth_s, expected);
  EXPECT_GT(stats::student_t_quantile(0.975, kReps - 1), 1.96);

  EXPECT_THROW((void)scenario::run_replications(cfg, 0), std::invalid_argument);
}

}  // namespace
}  // namespace abp
