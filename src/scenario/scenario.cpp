#include "src/scenario/scenario.hpp"

#include "src/exp/experiment_runner.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/student_t.hpp"

namespace abp::scenario {

ScenarioConfig paper_scenario(traffic::PatternKind pattern, core::ControllerType type,
                              double fixed_slot_period_s) {
  ScenarioConfig cfg;
  cfg.grid = net::GridConfig{};  // 3x3, W=120, mu=1, left-hand traffic
  cfg.demand.pattern = pattern;
  cfg.demand.turning = traffic::TurningTable::paper();
  cfg.controller.type = type;
  cfg.controller.util.alpha = -1.0;
  cfg.controller.util.beta = -2.0;
  cfg.controller.util.amber_duration_s = 4.0;
  cfg.controller.util.gstar_policy = core::GStarPolicy::WStarMu;
  cfg.controller.fixed_slot.period_s = fixed_slot_period_s;
  cfg.controller.fixed_slot.amber_duration_s = 4.0;
  cfg.controller.fixed_time.amber_duration_s = 4.0;
  cfg.duration_s = traffic::paper_duration_s(pattern);
  return cfg;
}

stats::RunResult run_scenario(const ScenarioConfig& config) {
  return sim::make_simulator(config)->finish(config.duration_s);
}

ReplicationSummary run_replications(const ScenarioConfig& config, int replications,
                                    int jobs, bool allow_oversubscribe) {
  exp::ExperimentRunner runner(
      {.jobs = jobs, .allow_oversubscribe = allow_oversubscribe});
  const std::vector<stats::RunResult> runs =
      runner.run(exp::replication_configs(config, replications));

  ReplicationSummary summary;
  Accumulator acc;
  for (const stats::RunResult& r : runs) {
    summary.avg_queuing_times_s.push_back(r.metrics.average_queuing_time_s());
    acc.add(summary.avg_queuing_times_s.back());
  }
  summary.mean_s = acc.mean();
  summary.stddev_s = acc.stddev();
  summary.ci95_halfwidth_s = stats::ci95_halfwidth(acc);
  return summary;
}

}  // namespace abp::scenario
