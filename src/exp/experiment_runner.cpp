#include "src/exp/experiment_runner.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "src/sim/simulator.hpp"

namespace abp::exp {
namespace {

// One run with its exception captured, so a throwing run cannot take the
// batch down with it.
RunStatus execute_one(const scenario::ScenarioConfig& config) {
  RunStatus status;
  try {
    status.result = sim::make_simulator(config)->finish(config.duration_s);
  } catch (const std::exception& e) {
    status.error = e.what();
    status.exception = std::current_exception();
  } catch (...) {
    status.error = "unknown exception";
    status.exception = std::current_exception();
  }
  return status;
}

}  // namespace

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

  // Dynamic scheduling: each participant pulls the next unstarted run off an
  // atomic cursor, so long runs don't serialize behind a static partition.
  // Every run writes only its own status slot, and its outcome is a pure
  // function of its config — scheduling order cannot show up in the
  // statuses.
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= configs.size()) return;
      statuses[i] = execute_one(configs[i]);
    }
  };
  // execute_one captures every run's exception; only recording one can
  // throw. A helper keeps what escapes it for the caller to rethrow after
  // the join.
  std::vector<std::exception_ptr> helper_errors(participants - 1);
  {
    // Declared after everything the helpers use, so unwinding joins them
    // before it destroys any of it.
    std::vector<std::jthread> helpers;
    helpers.reserve(participants - 1);
    for (std::size_t h = 0; h + 1 < participants; ++h) {
      helpers.emplace_back([&, h] {
        try {
          drain();
        } catch (...) {
          helper_errors[h] = std::current_exception();
        }
      });
    }
    drain();
  }
  for (const std::exception_ptr& e : helper_errors) {
    if (e) std::rethrow_exception(e);
  }
  return statuses;
}

std::vector<stats::RunResult> ExperimentRunner::run(
    const std::vector<scenario::ScenarioConfig>& configs) {
  std::vector<RunStatus> statuses = run_statuses(configs);
  std::vector<stats::RunResult> results;
  results.reserve(statuses.size());
  for (RunStatus& status : statuses) {
    if (!status.ok()) std::rethrow_exception(status.exception);
    results.push_back(std::move(status.result));
  }
  return results;
}

}  // namespace abp::exp
