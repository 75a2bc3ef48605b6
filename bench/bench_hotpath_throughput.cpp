// Hot-path throughput bench: vehicle-steps per wall-clock second on square
// grids from 1x1 to 8x8, for both simulators, over a 2-hour simulated run.
// Both simulators run serial ticks, so their rows carry threads = 1; the
// `*-batch` rows put the experiment runner's jobs count in that column.
//
// A "vehicle-step" is one vehicle being inside the network for one simulator
// tick — the unit of useful work a simulator performs. Reporting throughput
// in vehicle-steps/s (rather than plain steps/s) makes runs with different
// traffic loads comparable and exposes any per-tick cost that scales with
// *history* instead of *active state*: such a cost makes vehicle-steps/s
// decay over long runs even at constant occupancy.
//
// Output: a human-readable table on stdout, a CSV mirror under
// ./bench_results/, and a JSON report (docs/PERFORMANCE.md explains the
// schema) whose header records the compiler and the machine's hardware
// concurrency so numbers from different builds are attributable. The JSON
// path defaults to BENCH_hotpath.json in the working directory and is
// overridable as argv[1] — CI writes to a scratch path and diffs it against
// the checked-in bench/baseline_hotpath.json (bench/compare_hotpath.py).
// ABP_FAST=1 scales the simulated horizon down 10x for smoke runs.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/core/factory.hpp"
#include "src/exp/experiment_runner.hpp"
#include "src/microsim/micro_sim.hpp"
#include "src/net/grid.hpp"
#include "src/queuesim/queue_sim.hpp"
#include "src/scenario/scenario.hpp"
#include "src/sim/run_setup.hpp"
#include "src/sim/simulator.hpp"
#include "src/traffic/demand.hpp"

namespace abp::bench {
namespace {

struct Row {
  int grid = 0;
  std::string sim;
  int threads = 1;
  double sim_seconds = 0.0;
  long long vehicle_steps = 0;   // sum over ticks of vehicles in the network
  std::size_t completed = 0;
  double wall_seconds = 0.0;
  [[nodiscard]] double vehicle_steps_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(vehicle_steps) / wall_seconds : 0.0;
  }
  // Pure derived inverse of vehicle_steps_per_sec, in ns: the serial-floor
  // unit the lane-kernel work tracks (see docs/PERFORMANCE.md and
  // bench_krauss_kernel), reported per row so the trajectory is readable
  // straight off BENCH_hotpath.json.
  [[nodiscard]] double ns_per_vehicle_step() const {
    return vehicle_steps > 0 ? wall_seconds * 1e9 / static_cast<double>(vehicle_steps)
                             : 0.0;
  }
};

// Samples vehicles_in_network() once per simulated second and scales by the
// ticks per second, so the bench harness itself stays O(1) per sim-second
// regardless of how the simulator implements the query.
template <typename Sim>
Row drive(Sim& sim, const char* name, int grid, int threads, double duration_s, double dt_s) {
  Row row;
  row.grid = grid;
  row.sim = name;
  row.threads = threads;
  row.sim_seconds = duration_s;
  const double ticks_per_second = 1.0 / dt_s;
  stats::RunResult result;
  row.wall_seconds = timed_seconds([&] {
    for (double t = 1.0; t <= duration_s; t += 1.0) {
      sim.run_until(t);
      row.vehicle_steps +=
          static_cast<long long>(sim.vehicles_in_network() * ticks_per_second);
    }
    result = sim.finish(duration_s);
  });
  row.completed = result.metrics.completed;
  return row;
}

Row run_micro(const net::Network& net, double duration_s, std::uint64_t seed, int grid) {
  core::ControllerSpec spec;  // UTIL-BP defaults
  traffic::DemandGenerator demand(net, traffic::DemandConfig{}, seed);
  const microsim::MicroSimConfig config;
  microsim::MicroSim sim(net, config, core::make_controllers(spec, net), demand,
                         seed + sim::kMicroSeedSalt);
  return drive(sim, "micro", grid, 1, duration_s, config.dt_s);
}

Row run_queue(const net::Network& net, double duration_s, std::uint64_t seed, int grid) {
  core::ControllerSpec spec;
  traffic::DemandGenerator demand(net, traffic::DemandConfig{}, seed);
  const queuesim::QueueSimConfig config;
  queuesim::QueueSim sim(net, config, core::make_controllers(spec, net), demand);
  return drive(sim, "queue", grid, 1, duration_s, config.step_s);
}

// Batch-throughput row: a replication fleet through the experiment runner
// (run-level parallelism; each run stays tick-serial). The `threads` column
// carries the runner's jobs count. Vehicle-steps are reconstructed from each
// run's in_network_series — occupancy sampled every sample_interval_s,
// scaled by the ticks per sample — since the runner drives runs internally;
// that estimator is deterministic, so these rows gate the runner's overhead
// and scaling in compare_hotpath.py like any other row.
Row run_batch(scenario::SimulatorKind kind, const char* name, int jobs,
              double duration_s, std::uint64_t seed) {
  constexpr int kReplications = 8;
  scenario::ScenarioConfig cfg =
      scenario::paper_scenario(traffic::PatternKind::II, core::ControllerType::UtilBp);
  cfg.grid.rows = 4;
  cfg.grid.cols = 4;
  cfg.simulator = kind;
  cfg.duration_s = duration_s;
  cfg.seed = seed;
  const bool micro = kind == scenario::SimulatorKind::Micro;
  const double dt_s = micro ? cfg.micro.dt_s : cfg.queue.step_s;
  const double sample_s = micro ? cfg.micro.sample_interval_s : cfg.queue.sample_interval_s;

  Row row;
  row.grid = 4;
  row.sim = name;
  row.threads = jobs;
  row.sim_seconds = duration_s * kReplications;
  // allow_oversubscribe: batch rows measure whatever the host gives them —
  // on a small box the jobs=4 row records the oversubscription cost instead
  // of refusing to run.
  exp::ExperimentRunner runner({.jobs = jobs, .allow_oversubscribe = true});
  std::vector<stats::RunResult> results;
  row.wall_seconds = timed_seconds(
      [&] { results = runner.run(exp::replication_configs(cfg, kReplications)); });
  for (const stats::RunResult& r : results) {
    row.completed += r.metrics.completed;
    double occupancy_samples = 0.0;
    for (double v : r.in_network_series.values()) occupancy_samples += v;
    row.vehicle_steps += static_cast<long long>(occupancy_samples * sample_s / dt_s);
  }
  return row;
}

// Fault-machinery rows, driven through the unified sim::Simulator interface
// (the only layer that executes fault schedules). The *-nofault rows carry an
// empty schedule and gate the zero-cost-when-empty claim: make_simulator's
// adapter takes the plain pass-through path, so these rows must stay within
// compare_hotpath.py's perf gate against the direct-construction rows'
// history. The *-incident rows run the full incident repertoire — a capacity
// drop with restoration, a sensor dropout and a controller outage, timed as
// fractions of the horizon so ABP_FAST smoke runs still fire every event.
Row run_unified(scenario::SimulatorKind kind, const char* name, double duration_s,
                std::uint64_t seed, bool with_faults) {
  scenario::ScenarioConfig cfg =
      scenario::paper_scenario(traffic::PatternKind::II, core::ControllerType::UtilBp);
  cfg.grid.rows = 4;
  cfg.grid.cols = 4;
  cfg.simulator = kind;
  cfg.duration_s = duration_s;
  cfg.seed = seed;
  if (with_faults) {
    cfg.faults.capacity.push_back(
        {{0, 0, net::Side::North}, 0.2 * duration_s, 0.5 * duration_s, 0.3});
    cfg.faults.sensors.push_back({{0, 1}, 0.1 * duration_s, 0.4 * duration_s,
                                  core::SensorFaultKind::Dropout, 0, 0});
    cfg.faults.controllers.push_back({{2, 2}, 0.3 * duration_s, 0.6 * duration_s});
  }
  const double dt_s = kind == scenario::SimulatorKind::Micro ? cfg.micro.dt_s
                                                             : cfg.queue.step_s;
  const std::unique_ptr<sim::Simulator> sim = sim::make_simulator(cfg);
  return drive(*sim, name, 4, 1, duration_s, dt_s);
}

void write_json(const std::string& path, const std::vector<Row>& rows, double duration_s) {
  std::ofstream out(path);
  // The header's sim_seconds is the per-run horizon; batch rows cover
  // several replications of it, so each row also records its own total.
  out << "{\n  \"bench\": \"hotpath_throughput\",\n"
      << "  \"compiler\": \"" << kCompiler << "\",\n"
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"sim_seconds\": " << duration_s << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"grid\": \"" << r.grid << "x" << r.grid << "\", \"sim\": \"" << r.sim
        << "\", \"threads\": " << r.threads << ", \"sim_seconds\": " << r.sim_seconds
        << ", \"vehicle_steps\": " << r.vehicle_steps
        << ", \"completed\": " << r.completed << ", \"wall_seconds\": " << r.wall_seconds
        << ", \"vehicle_steps_per_sec\": " << r.vehicle_steps_per_sec()
        << ", \"ns_per_vehicle_step\": " << r.ns_per_vehicle_step() << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "[json] " << path << "\n";
}

}  // namespace
}  // namespace abp::bench

int main(int argc, char** argv) {
  using namespace abp;
  using namespace abp::bench;

  const std::string json_path = argc > 1 ? argv[1] : "BENCH_hotpath.json";
  const double duration_s = 7200.0 * duration_scale();  // the paper's 2-hour horizon
  const std::uint64_t seed = 2020;
  const int grids[] = {1, 2, 3, 4, 6, 8};
  const int batch_jobs[] = {1, 4};

  print_header("Hot-path throughput (vehicle-steps per wall-clock second)");
  std::printf("compiler: %s, hardware threads: %u\n", kCompiler,
              std::thread::hardware_concurrency());
  std::printf("%-6s %-11s %8s %14s %12s %10s %16s %14s\n", "grid", "sim", "threads",
              "vehicle-steps", "completed", "wall [s]", "veh-steps/s", "ns/veh-step");

  std::vector<Row> rows;
  std::ofstream csv = open_csv("hotpath_throughput");
  csv << "grid,sim,threads,sim_seconds,vehicle_steps,completed,wall_seconds,"
         "vehicle_steps_per_sec,ns_per_vehicle_step\n";
  auto emit = [&](Row row) {
    std::printf("%dx%-4d %-11s %8d %14lld %12zu %10.2f %16.0f %14.2f\n", row.grid,
                row.grid, row.sim.c_str(), row.threads, row.vehicle_steps, row.completed,
                row.wall_seconds, row.vehicle_steps_per_sec(), row.ns_per_vehicle_step());
    std::fflush(stdout);
    csv << row.grid << "x" << row.grid << "," << row.sim << "," << row.threads << ","
        << row.sim_seconds << "," << row.vehicle_steps << "," << row.completed << ","
        << row.wall_seconds << "," << row.vehicle_steps_per_sec() << ","
        << row.ns_per_vehicle_step() << "\n";
    rows.push_back(std::move(row));
  };
  for (int n : grids) {
    net::GridConfig grid_cfg;
    grid_cfg.rows = n;
    grid_cfg.cols = n;
    const net::Network net = net::build_grid(grid_cfg);
    emit(run_queue(net, duration_s, seed, n));
    emit(run_micro(net, duration_s, seed, n));
  }
  // Metro-scale rows (same schema): 16x16 and 32x32 carry 4x / 16x the
  // vehicles of the 8x8, so they run a proportionally shorter horizon to
  // keep the bench's wall time bounded. Throughput in vehicle-steps/s is
  // horizon-independent once the grid is loaded, and each row records its
  // own sim_seconds, so compare_hotpath.py gates them like any other row.
  struct BigGrid {
    int n;
    double horizon_scale;
  };
  const BigGrid big_grids[] = {{16, 0.125}, {32, 0.0625}};
  for (const BigGrid& bg : big_grids) {
    net::GridConfig grid_cfg;
    grid_cfg.rows = bg.n;
    grid_cfg.cols = bg.n;
    const net::Network net = net::build_grid(grid_cfg);
    const double big_duration_s = duration_s * bg.horizon_scale;
    emit(run_queue(net, big_duration_s, seed, bg.n));
    emit(run_micro(net, big_duration_s, seed, bg.n));
  }
  // Run-level parallelism rows: 8-replication fleets on the 4x4 grid through
  // the ExperimentRunner (threads column = runner jobs).
  for (int jobs : batch_jobs) {
    emit(run_batch(scenario::SimulatorKind::Queue, "queue-batch", jobs, duration_s, seed));
  }
  for (int jobs : batch_jobs) {
    emit(run_batch(scenario::SimulatorKind::Micro, "micro-batch", jobs, duration_s, seed));
  }
  // Fault-machinery rows on the 4x4 grid (see run_unified): empty-schedule
  // pass-through vs the full incident repertoire.
  emit(run_unified(scenario::SimulatorKind::Queue, "queue-nofault", duration_s, seed, false));
  emit(run_unified(scenario::SimulatorKind::Queue, "queue-incident", duration_s, seed, true));
  emit(run_unified(scenario::SimulatorKind::Micro, "micro-nofault", duration_s, seed, false));
  emit(run_unified(scenario::SimulatorKind::Micro, "micro-incident", duration_s, seed, true));
  write_json(json_path, rows, duration_s);
  return 0;
}
