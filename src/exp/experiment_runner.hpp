// Experiment layer: run-level parallelism over independent scenario runs,
// the repository's one parallelism axis (each run's tick is serial).
//
// Paper benches and replication studies execute dozens of independent
// ScenarioConfigs (replication sets, pattern x controller grids, parameter
// sweeps) — each run is self-contained (make_simulator owns its network,
// demand and controllers), so a batch parallelizes trivially across runs
// with zero shared mutable state. Each run_statuses() call starts
// min(jobs, batch size) - 1 threads, which with the calling thread pull runs
// off one atomic cursor, and joins them before it returns; a runner holds no
// thread between batches. Results are collected in batch order.
//
// Determinism: a run's result depends only on its own ScenarioConfig (every
// RNG stream is derived from config.seed), never on which thread executes it
// or on how many run concurrently — so a batch is bit-identical to a serial
// run_scenario loop over the same configs at every jobs count. The
// `invariance`-labelled experiment_runner_test pins this at jobs in {1,2,8}.
//
// Failure isolation: a long campaign must not lose a night of sibling
// results to one bad run. run_statuses() captures each run's result or
// exception into a per-run RunStatus, and the batch always drains. run()
// stays the thin throwing wrapper over it for callers that want the
// historical all-or-nothing contract. See docs/ROBUSTNESS.md,
// "ExperimentRunner failure policy".
//
// Oversubscription guard: more concurrent runs than hardware_concurrency is
// almost never intended — it only adds contention — so run() rejects it
// unless BatchOptions::allow_oversubscribe is set. See docs/PERFORMANCE.md,
// "Run-level vs tick-level parallelism".
#pragma once

#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/scenario/scenario_config.hpp"
#include "src/stats/run_result.hpp"

namespace abp::exp {

// A batch refused before any run starts: a replication count outside
// [1, kMaxReplications], or more concurrent runs than the machine has cores.
// A caller with a command line reports it as a usage error.
class BatchError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

// 1,000x the largest replication set any test, bench, example or workload
// runs (10 seeds); every config of a set is allocated up front, so counts in
// the billions end only in std::bad_alloc.
inline constexpr int kMaxReplications = 10000;

struct BatchOptions {
  // Concurrent runs (>= 1, counting the calling thread). 1 = serial.
  int jobs = 1;
  // Permit more concurrent runs than hardware_concurrency. Tests use
  // this to exercise jobs counts above the core count; measurement runs
  // should leave it off and size jobs with max_safe_jobs().
  bool allow_oversubscribe = false;
};

// Largest jobs count the oversubscription guard admits: the machine's
// hardware_concurrency, or 1 when that is unknown (reported as 0).
[[nodiscard]] int max_safe_jobs() noexcept;

// The deterministic seed-derivation scheme for replication sets: `n` copies
// of `base` with seeds base.seed + 0, base.seed + 1, ..., base.seed + n - 1.
// Runs are identified by their seed, not by execution order, so per-seed
// result streams stay comparable across jobs counts, machines and the
// historical serial run_replications loop. Throws BatchError unless
// 1 <= n <= kMaxReplications.
[[nodiscard]] std::vector<scenario::ScenarioConfig> replication_configs(
    const scenario::ScenarioConfig& base, int replications);

// Outcome of one run of a batch: either it ran to its configured duration
// and `result` is complete, or it raised, and `exception` holds what it
// raised (original type kept), `error` its message, and `result` is empty.
struct RunStatus {
  stats::RunResult result;
  std::string error;
  std::exception_ptr exception;

  [[nodiscard]] bool ok() const noexcept { return exception == nullptr; }
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(BatchOptions options = {});

  [[nodiscard]] const BatchOptions& options() const noexcept { return options_; }

  // Executes every config (construct simulator, run to config.duration_s,
  // finish) with up to `jobs` runs in flight, capturing each run's outcome
  // into a RunStatus in batch order: statuses[i] belongs to configs[i]
  // regardless of completion order. A throwing run never disturbs its
  // siblings — the batch always drains. Throws BatchError only for
  // batch-level misconfiguration (the oversubscription guard).
  [[nodiscard]] std::vector<RunStatus> run_statuses(
      const std::vector<scenario::ScenarioConfig>& configs);

  // All-or-nothing wrapper over run_statuses(): returns the results in batch
  // order when every run is ok; otherwise rethrows the first (in batch
  // order) failed run's captured exception — with its original type — after
  // the whole batch has drained.
  [[nodiscard]] std::vector<stats::RunResult> run(
      const std::vector<scenario::ScenarioConfig>& configs);

 private:
  BatchOptions options_;
};

}  // namespace abp::exp
