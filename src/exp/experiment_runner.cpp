#include "src/exp/experiment_runner.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "src/sim/simulator.hpp"

namespace abp::exp {

int max_safe_jobs() noexcept {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

std::vector<scenario::ScenarioConfig> replication_configs(
    const scenario::ScenarioConfig& base, int replications) {
  if (replications < 1 || replications > kMaxReplications) {
    throw BatchError("replications: " + std::to_string(replications) +
                     " is outside [1, " + std::to_string(kMaxReplications) + "]");
  }
  std::vector<scenario::ScenarioConfig> configs(static_cast<std::size_t>(replications),
                                                base);
  for (int i = 0; i < replications; ++i) {
    configs[static_cast<std::size_t>(i)].seed =
        base.seed + static_cast<std::uint64_t>(i);
  }
  return configs;
}

ExperimentRunner::ExperimentRunner(BatchOptions options) : options_(options) {
  if (options_.jobs < 1) throw std::invalid_argument("ExperimentRunner needs jobs >= 1");
  if (options_.tick_budget < 0) {
    throw std::invalid_argument("ExperimentRunner needs tick_budget >= 0");
  }
  if (options_.retries < 0) {
    throw std::invalid_argument("ExperimentRunner needs retries >= 0");
  }
  pool_ = std::make_unique<ThreadPool>(options_.jobs);
}

RunStatus ExperimentRunner::execute_one(const scenario::ScenarioConfig& config) const {
  // The tick budget converts to a simulated-time horizon through the
  // backend's own step size; a run that fits inside the budget is untouched.
  double horizon_s = config.duration_s;
  bool truncated = false;
  if (options_.tick_budget > 0) {
    const double dt = config.simulator == scenario::SimulatorKind::Micro
                          ? config.micro.dt_s
                          : config.queue.step_s;
    const double budget_s = dt * static_cast<double>(options_.tick_budget);
    if (budget_s < config.duration_s) {
      horizon_s = budget_s;
      truncated = true;
    }
  }

  RunStatus status;
  for (int attempt = 0;; ++attempt) {
    status.attempts = attempt + 1;
    try {
      status.result = sim::make_simulator(config)->finish(horizon_s);
      if (truncated) {
        status.outcome = RunStatus::Outcome::Timeout;
        status.error = "tick budget " + std::to_string(options_.tick_budget) +
                       " exhausted at t=" + std::to_string(horizon_s) +
                       "s of " + std::to_string(config.duration_s) + "s";
      } else {
        status.outcome = RunStatus::Outcome::Ok;
        status.error.clear();
      }
      status.exception = nullptr;
      return status;
    } catch (const std::exception& e) {
      status.outcome = RunStatus::Outcome::Error;
      status.error = e.what();
      status.exception = std::current_exception();
      status.result = {};
    } catch (...) {
      status.outcome = RunStatus::Outcome::Error;
      status.error = "unknown exception";
      status.exception = std::current_exception();
      status.result = {};
    }
    if (attempt >= options_.retries) return status;
  }
}

std::vector<RunStatus> ExperimentRunner::run_statuses(
    const std::vector<scenario::ScenarioConfig>& configs) {
  // Effective concurrency: a batch narrower than `jobs` never has more than
  // configs.size() runs in flight, so the guard judges what will actually
  // run, not the configured ceiling.
  const std::size_t participants =
      std::min(configs.size(), static_cast<std::size_t>(options_.jobs));
  const unsigned hc = std::thread::hardware_concurrency();
  if (!options_.allow_oversubscribe && hc > 0 && participants > hc) {
    throw BatchError(std::to_string(participants) + " concurrent runs oversubscribe the " +
                     std::to_string(hc) +
                     " hardware threads; lower the jobs count, or allow oversubscription "
                     "(results are bit-identical either way, only slower)");
  }

  std::vector<RunStatus> statuses(configs.size());
  if (configs.empty()) return statuses;

  // Dynamic scheduling: each pool participant pulls the next unstarted run
  // off an atomic cursor, so long runs don't serialize behind a static
  // partition. Every run writes only its own status slot, and its outcome is
  // a pure function of its config and the batch options — scheduling order
  // cannot show up in the statuses. execute_one never lets an exception
  // escape (it is captured into the status), so one bad run cannot take the
  // batch down with it.
  std::atomic<std::size_t> next{0};
  pool_->parallel_for(participants, [&](std::size_t, std::size_t) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= configs.size()) return;
      statuses[i] = execute_one(configs[i]);
    }
  });
  return statuses;
}

std::vector<stats::RunResult> ExperimentRunner::run(
    const std::vector<scenario::ScenarioConfig>& configs) {
  std::vector<RunStatus> statuses = run_statuses(configs);
  std::vector<stats::RunResult> results;
  results.reserve(statuses.size());
  for (RunStatus& status : statuses) {
    switch (status.outcome) {
      case RunStatus::Outcome::Ok:
        results.push_back(std::move(status.result));
        break;
      case RunStatus::Outcome::Error:
        std::rethrow_exception(status.exception);
      case RunStatus::Outcome::Timeout:
        throw std::runtime_error("ExperimentRunner: " + status.error);
    }
  }
  return results;
}

}  // namespace abp::exp
