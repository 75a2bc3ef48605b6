// Scenario assembly: one call from "paper experiment description" to results.
//
// ScenarioConfig (src/scenario/scenario_config.hpp) bundles the network
// (grid), demand (pattern), controller policy and simulator choice.
// run_scenario() hands the config to the unified simulator factory
// (abp::sim::make_simulator), runs to the configured duration and returns the
// metrics/traces/series bundle. paper_scenario() fills in the paper's
// evaluation defaults: 3x3 grid, W=120, mu=1, amber 4 s, alpha=-1, beta=-2,
// g* per Eq. (12). Batches of runs (replication sets, grids, sweeps) go
// through abp::exp::ExperimentRunner (src/exp/experiment_runner.hpp), which
// run_replications() wraps.
#pragma once

#include <vector>

#include "src/scenario/scenario_config.hpp"
#include "src/stats/run_result.hpp"

namespace abp::scenario {

// The paper's evaluation defaults for a given pattern and policy.
// `fixed_slot_period_s` configures CAP-BP / ORIG-BP when selected.
[[nodiscard]] ScenarioConfig paper_scenario(traffic::PatternKind pattern,
                                            core::ControllerType type,
                                            double fixed_slot_period_s = 16.0);

// Builds network + demand + controllers + simulator, runs, returns results.
// Throws on invalid configuration (network validation failures included).
[[nodiscard]] stats::RunResult run_scenario(const ScenarioConfig& config);

// Statistical summary of one scenario across independent seeds.
struct ReplicationSummary {
  // Per-run network-wide average queuing times, in seed order (the per-seed
  // result stream; seed i of the summary is config.seed + i).
  std::vector<double> avg_queuing_times_s;
  double mean_s = 0.0;
  double stddev_s = 0.0;
  // Half-width of the 95% confidence interval on the mean, using the
  // Student-t quantile with replications - 1 degrees of freedom (replication
  // counts are small; the normal 1.96 would be anti-conservative). 0 when
  // only one replication ran.
  double ci95_halfwidth_s = 0.0;
};

// Runs `replications` copies of the scenario with seeds config.seed,
// config.seed+1, ... (exp::replication_configs' derivation scheme) and
// summarizes the headline metric. Throws exp::BatchError unless
// 1 <= replications <= exp::kMaxReplications. `jobs` runs
// that many replications concurrently through exp::ExperimentRunner —
// results are bit-identical at every jobs count; jobs beyond
// hardware_concurrency is rejected unless `allow_oversubscribe`.
[[nodiscard]] ReplicationSummary run_replications(const ScenarioConfig& config,
                                                  int replications, int jobs = 1,
                                                  bool allow_oversubscribe = false);

}  // namespace abp::scenario
