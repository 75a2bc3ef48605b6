// The repository benchmark: four workloads driven through the library's
// public API, end-to-end metrics from untraced runs and per-layer metrics
// from a separate traced run. perfbench/README.md documents the workloads,
// the metric-to-layer map and the baselines.
//
//   abp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--scale F] [--trace-out FILE]
//
// Every workload is generated from --seed as scenario text, loaded back with
// scenario::load_scenario and run single-process: one tick thread, one shard,
// and ExperimentRunner jobs = 2 for the sweep only. A run first does one
// untimed warm-up job (which also counts vehicle-steps), then repeats the job
// closed-loop until --seconds have been measured. The job's wall is the sum,
// over its segments (slices of the horizon; the sweep's calibrate and sweep
// stages), of each segment's fastest time over the repeats; single-run
// repeats rotate over the allowed CPUs. Per-layer timings are medians over
// the traced repeats.
// --scale multiplies every simulated horizon (the smoke test uses it).
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics ({name: {value, unit}}): the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The exit
// status is 1 when any output check failed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/controller.hpp"
#include "src/exp/experiment_runner.hpp"
#include "src/microsim/micro_sim.hpp"
#include "src/queuesim/queue_sim.hpp"
#include "src/scenario/scenario.hpp"
#include "src/scenario/scenario_io.hpp"
#include "src/sim/run_setup.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/simulator_guard.hpp"
#include "src/surrogate/calibrator.hpp"
#include "src/surrogate/metric_vector.hpp"
#include "src/surrogate/sweep.hpp"
#include "src/traffic/demand.hpp"
#include "src/util/accumulator.hpp"

namespace {

using namespace abp;
using Clock = std::chrono::steady_clock;

std::int64_t ns_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin).count();
}

double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

// The end-to-end timings take minima over the window's repeats. Noise on a
// shared host is one-sided (other tenants only slow a repeat down) and comes
// in bursts of seconds, which move a window's median by 10-30% from run to
// run and its minima by a few percent (perfbench/README.md, "Spread").
double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// Nearest-rank quantile of a sample of tick times; 0 for an empty sample.
double quantile_ns(std::vector<std::int64_t> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return static_cast<double>(values[index]);
}

// Moves the calling thread to the next CPU it may run on, one step per call.
// On a shared host the vCPUs are not equally fast at a given time (up to
// 1.35x apart, measured), and the scheduler keeps a thread where it started.
// Rotating the single-run repeats over all CPUs lets the per-segment minima
// come from the least loaded one (perfbench/README.md, "Spread"). Does
// nothing when only one CPU is allowed or pinning is refused.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }
  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    static_cast<void>(sched_setaffinity(0, sizeof set, &set));
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ------------------------------------------------------------------ options

constexpr const char* kWorkloads[] = {"dense8x8_micro", "metro64_micro",
                                      "sweep3x3_surrogate", "incident16_queue"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string trace_out;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = std::find(std::begin(kWorkloads), std::end(kWorkloads), value) !=
                      std::end(kWorkloads);
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = std::stoi(value) != 0;
    } else if (flag == "--scale") {
      opt.scale = std::stod(value);
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + std::string(flag));
    }
  }
  if (!have_workload) throw std::invalid_argument("unknown or missing --workload");
  if (!(opt.seconds > 0.0) || !(opt.scale > 0.0)) {
    throw std::invalid_argument("--seconds and --scale must be positive");
  }
  return opt;
}

// ------------------------------------------------------------------ inputs

// SplitMix64: places the incident workload's faults from the seed.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

scenario::ScenarioConfig grid_config(traffic::PatternKind pattern, int n,
                                     scenario::SimulatorKind kind, double duration_s,
                                     std::uint64_t seed) {
  scenario::ScenarioConfig cfg =
      scenario::paper_scenario(pattern, core::ControllerType::UtilBp);
  cfg.grid.rows = n;
  cfg.grid.cols = n;
  cfg.simulator = kind;
  cfg.duration_s = duration_s;
  cfg.seed = seed;
  return cfg;
}

// The incident drill: UTIL-BP behind the adapting changepoint detector, the
// guard recording, four capacity faults (one per grid quadrant), a sensor
// dropout and a controller outage, all timed as fractions of the horizon.
scenario::ScenarioConfig incident_config(std::uint64_t seed, double duration_s) {
  scenario::ScenarioConfig cfg = grid_config(
      traffic::PatternKind::II, 16, scenario::SimulatorKind::Queue, duration_s, seed);
  cfg.detector.enabled = true;
  cfg.detector.adapt = true;
  cfg.guard.enabled = true;
  cfg.guard.policy = scenario::GuardPolicy::Record;
  cfg.guard.interval_s = 10.0;
  SeedStream rng(seed);
  const net::Side sides[] = {net::Side::North, net::Side::East, net::Side::South,
                             net::Side::West};
  const double factors[] = {0.0, 0.25, 0.5};
  for (int quadrant = 0; quadrant < 4; ++quadrant) {
    scenario::CapacityFault f;
    f.road = {8 * (quadrant / 2) + rng.below(8), 8 * (quadrant % 2) + rng.below(8),
              sides[rng.below(4)]};
    f.start_s = (0.1 + 0.3 * rng.unit()) * duration_s;
    f.end_s = f.start_s + (0.2 + 0.2 * rng.unit()) * duration_s;
    f.capacity_factor = factors[rng.below(3)];
    cfg.faults.capacity.push_back(f);
  }
  cfg.faults.sensors.push_back({{rng.below(16), rng.below(16)}, 0.3 * duration_s,
                                0.6 * duration_s, core::SensorFaultKind::Dropout, 0, 0});
  cfg.faults.controllers.push_back(
      {{rng.below(16), rng.below(16)}, 0.4 * duration_s, 0.7 * duration_s});
  return cfg;
}

// The generated input of a workload: its scenario document. The program under
// test sees only this text (the sweep's axes and options are fixed below).
std::string workload_text(const std::string& workload, std::uint64_t seed, double scale) {
  scenario::ScenarioConfig cfg;
  if (workload == "dense8x8_micro") {
    cfg = grid_config(traffic::PatternKind::Mixed, 8, scenario::SimulatorKind::Micro,
                      7200.0 * scale, seed);
  } else if (workload == "metro64_micro") {
    cfg = grid_config(traffic::PatternKind::II, 64, scenario::SimulatorKind::Micro,
                      450.0 * scale, seed);
  } else if (workload == "incident16_queue") {
    cfg = incident_config(seed, 3600.0 * scale);
  } else {
    cfg = grid_config(traffic::PatternKind::II, 3, scenario::SimulatorKind::Queue,
                      600.0 * scale, seed);
  }
  cfg.name = "perfbench-" + workload;
  return scenario::dump_scenario(cfg);
}

// ------------------------------------------------------------------ checks

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
  void count_run() { ++attempted_; }
  [[nodiscard]] long long attempted() const { return attempted_; }
  [[nodiscard]] long long failed() const { return failed_; }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
};

// FNV-1a over the bit patterns of a run's simulated statistics.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFU;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

void digest_series(Digest& d, const stats::TimeSeries& s) {
  d.u64(s.size());
  for (const double t : s.times()) d.f64(t);
  for (const double v : s.values()) d.f64(v);
}

// Uses only count() and mean() of the sample sets: quantile() sorts the
// samples in place, which would change the bits of any later mean().
std::uint64_t result_digest(const stats::RunResult& r) {
  Digest d;
  const stats::NetworkMetrics& m = r.metrics;
  d.u64(m.generated);
  d.u64(m.entered);
  d.u64(m.completed);
  d.u64(m.in_network_at_end);
  d.f64(m.entry_blocked_time_s);
  d.u64(m.queuing_time_s.count());
  d.f64(m.queuing_time_s.mean());
  d.u64(m.travel_time_s.count());
  d.f64(m.travel_time_s.mean());
  d.f64(r.duration_s);
  for (const stats::PhaseTrace& trace : r.phase_traces) {
    d.u64(trace.samples().size());
    for (const stats::PhaseTrace::Sample& s : trace.samples()) {
      d.f64(s.time);
      d.u64(static_cast<std::uint64_t>(s.phase));
    }
  }
  for (const stats::TimeSeries& s : r.road_series) digest_series(d, s);
  digest_series(d, r.in_network_series);
  d.u64(r.guard.checks);
  for (const stats::GuardViolation& v : r.guard.violations) {
    d.f64(v.time_s);
    d.str(v.message);
  }
  d.u64(r.detections.samples);
  for (const stats::DetectionEvent& e : r.detections.events) {
    d.f64(e.time_s);
    d.u64(static_cast<std::uint64_t>(e.row));
    d.u64(static_cast<std::uint64_t>(e.col));
    d.u64(static_cast<std::uint64_t>(e.direction));
    d.f64(e.statistic);
    for (const int link : e.links) d.u64(static_cast<std::uint64_t>(link));
  }
  return d.value();
}

std::uint64_t text_digest(std::string_view text) {
  Digest d;
  d.str(text);
  return d.value();
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void check_conservation(Checks& checks, const stats::RunResult& r, const std::string& what) {
  const stats::NetworkMetrics& m = r.metrics;
  checks.expect(m.entered == m.completed + m.in_network_at_end,
                what + ": entered == completed + in_network_at_end");
}

// ------------------------------------------------------------------ tracing

// Spans kept in memory and written once, as Chrome trace-event JSON (opens
// offline in Perfetto). Every span carries its layer and its self time; the
// per-layer self-time summary is accumulated even for spans not stored (the
// ticks of the sweep's replay runs, which would number in the hundreds of
// thousands).
class Trace {
 public:
  explicit Trace(Clock::time_point origin) : origin_(origin) {}

  void span(std::string name, const char* layer, Clock::time_point begin,
            Clock::time_point end, std::int64_t self_ns, std::string args = {}) {
    add_self(layer, self_ns);
    if (!keep_spans_) return;
    spans_.push_back({std::move(name), layer, ns_between(origin_, begin),
                      ns_between(begin, end), std::move(args)});
  }
  void span(std::string name, const char* layer, Clock::time_point begin,
            Clock::time_point end) {
    span(std::move(name), layer, begin, end, ns_between(begin, end));
  }
  void add_self(const char* layer, std::int64_t ns) { self_ns_[layer] += ns; }
  void keep_spans(bool keep) { keep_spans_ = keep; }
  [[nodiscard]] bool keeps_spans() const { return keep_spans_; }
  [[nodiscard]] const std::map<std::string, std::int64_t>& self_ns() const {
    return self_ns_;
  }

  void write(const std::string& path, const std::string& workload, std::uint64_t seed) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    out << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"workload\": \"" << workload
        << "\", \"seed\": " << seed << ", \"self_s_by_layer\": {";
    bool first = true;
    for (const auto& [layer, ns] : self_ns_) {
      out << (first ? "" : ", ") << "\"" << layer << "\": " << static_cast<double>(ns) * 1e-9;
      first = false;
    }
    out << "}},\n\"traceEvents\": [\n";
    char buf[128];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f",
                    static_cast<double>(s.begin_ns) * 1e-3,
                    static_cast<double>(s.dur_ns) * 1e-3);
      out << "{\"name\": \"" << s.name << "\", \"cat\": \"" << s.layer
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, " << buf << ", \"args\": {"
          << s.args << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  struct Span {
    std::string name;
    const char* layer;
    std::int64_t begin_ns;
    std::int64_t dur_ns;
    std::string args;
  };

  Clock::time_point origin_;
  bool keep_spans_ = true;
  std::vector<Span> spans_;
  std::map<std::string, std::int64_t> self_ns_;
};

// Per-layer measurements accumulated over one or more traced runs.
struct TickStats {
  std::vector<std::int64_t> tick_ns;
  std::int64_t total_ns = 0;
  std::int64_t decide_ns = 0;
  std::int64_t control_ns = 0;
  std::int64_t plain_ns = 0;
  std::int64_t control_ticks = 0;
  std::int64_t plain_ticks = 0;
};

struct RunLayers {
  TickStats micro;
  TickStats queue;
  std::int64_t runs = 0;
  std::int64_t net_build_ns = 0;
  std::int64_t make_controllers_ns = 0;
  std::int64_t construct_ns = 0;
  std::int64_t finish_ns = 0;
  // Tick loop plus finish: the traced counterpart of the untraced wall_s.
  std::int64_t run_ns = 0;
  std::int64_t decide_calls = 0;
  std::int64_t decide_ns = 0;
  std::int64_t vehicle_steps = 0;
  double active_road_sum = 0.0;
  double active_junction_sum = 0.0;
  std::int64_t active_samples = 0;
  std::int64_t capacity_events = 0;
  std::int64_t guard_checks = 0;
  std::int64_t detect_samples = 0;
  std::int64_t detect_events = 0;
};

struct DecideClock {
  std::int64_t calls = 0;
  std::int64_t ns = 0;
};

// Pass-through timing decorator around a junction's outermost controller.
class TimedController final : public core::SignalController {
 public:
  TimedController(core::ControllerPtr inner, DecideClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  [[nodiscard]] net::PhaseIndex decide(const core::IntersectionObservation& obs) override {
    const Clock::time_point begin = Clock::now();
    const net::PhaseIndex phase = inner_->decide(obs);
    clock_.ns += ns_between(begin, Clock::now());
    ++clock_.calls;
    return phase;
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  core::ControllerPtr inner_;
  DecideClock& clock_;
};

// Active-set fractions are sampled at every kActiveSampleEvery-th control
// tick: the scan is O(roads), as expensive as a sparse tick itself.
constexpr std::int64_t kActiveSampleEvery = 10;

// One run assembled from the same public helpers make_simulator uses
// (src/sim/run_setup.hpp), every controller wrapped in a TimedController, and
// run_until driven one tick at a time. Capacity events, guard checks and the
// detection export follow sim::make_simulator's adapter exactly, so the
// result is bit-identical to the untraced run's (a checked property).
template <typename Backend>
class TracedRun {
 public:
  TracedRun(const scenario::ScenarioConfig& config, Trace& trace, RunLayers& layers,
            TickStats& ticks, const char* backend_layer, bool keep_ticks)
      : config_(config),
        trace_(trace),
        layers_(layers),
        ticks_(ticks),
        backend_layer_(backend_layer),
        keep_ticks_(keep_ticks && trace.keeps_spans()) {
    const Clock::time_point t0 = Clock::now();
    network_ = std::make_unique<net::Network>(
        sim::build_validated(sim::effective_grid(config)));
    const Clock::time_point t1 = Clock::now();
    demand_ = std::make_unique<traffic::DemandGenerator>(*network_, config.demand,
                                                         config.seed);
    const Clock::time_point t2 = Clock::now();
    std::vector<core::ControllerPtr> controllers =
        sim::make_run_controllers(config, *network_, &adaptive_);
    const Clock::time_point t3 = Clock::now();
    for (core::ControllerPtr& c : controllers) {
      c = std::make_unique<TimedController>(std::move(c), decide_);
    }
    const Clock::time_point t4 = Clock::now();  // wrapping is harness time
    backend_.reset(new Backend(sim::construct_backend<Backend>(
        config, *network_, *demand_, std::move(controllers))));
    events_ = sim::build_capacity_events(config, *network_);
    if (config.guard.enabled) {
      guard_.emplace(config.guard.policy);
      next_guard_s_ = config.guard.interval_s;
    }
    for (const scenario::WatchSpec& w : config.watches) {
      backend_->watch_road(sim::resolve_watch(*network_, w), w.name);
    }
    const Clock::time_point t5 = Clock::now();
    trace_.span("net.build", "net", t0, t1);
    trace_.span("traffic.demand_init", "traffic", t1, t2);
    trace_.span("core.make_controllers", "core", t2, t3);
    trace_.span("sim.construct_backend", backend_layer_, t4, t5);
    layers_.net_build_ns += ns_between(t0, t1);
    layers_.make_controllers_ns += ns_between(t2, t3);
    layers_.construct_ns += ns_between(t4, t5);
    ++layers_.runs;
  }

  stats::RunResult run() {
    const Clock::time_point run_begin = Clock::now();
    const double end_s = config_.duration_s;
    std::int64_t control_ticks = 0;
    while (backend_->now() < end_s) {
      const std::int64_t decide_ns_before = decide_.ns;
      const std::int64_t calls_before = decide_.calls;
      const Clock::time_point begin = Clock::now();
      backend_->run_until(
          std::nextafter(backend_->now(), std::numeric_limits<double>::infinity()));
      const Clock::time_point end = Clock::now();
      const std::int64_t tick_ns = ns_between(begin, end);
      const std::int64_t decide_ns = decide_.ns - decide_ns_before;
      const bool control = decide_.calls != calls_before;
      ticks_.tick_ns.push_back(tick_ns);
      ticks_.total_ns += tick_ns;
      ticks_.decide_ns += decide_ns;
      (control ? ticks_.control_ns : ticks_.plain_ns) += tick_ns;
      ++(control ? ticks_.control_ticks : ticks_.plain_ticks);
      trace_.add_self("core", decide_ns);
      if (keep_ticks_) {
        trace_.span(control ? "tick.control" : "tick", backend_layer_, begin, end,
                    tick_ns - decide_ns,
                    "\"decide_ns\": " + std::to_string(decide_ns));
      } else {
        trace_.add_self(backend_layer_, tick_ns - decide_ns);
      }
      layers_.vehicle_steps += backend_->vehicles_in_network();
      after_tick();
      if (control && control_ticks++ % kActiveSampleEvery == 0) sample_active_set();
    }
    const Clock::time_point begin = Clock::now();
    stats::RunResult result = backend_->finish(end_s);
    export_detections(result);
    if (guard_) guard_->check(view_, result.metrics, result.guard);
    const Clock::time_point end = Clock::now();
    trace_.span("sim.finish", "sim", begin, end);
    layers_.finish_ns += ns_between(begin, end);
    layers_.run_ns += ns_between(run_begin, end);
    layers_.decide_calls += decide_.calls;
    layers_.decide_ns += decide_.ns;
    layers_.capacity_events += static_cast<std::int64_t>(next_event_);
    layers_.guard_checks += static_cast<std::int64_t>(result.guard.checks);
    layers_.detect_samples += static_cast<std::int64_t>(result.detections.samples);
    layers_.detect_events += static_cast<std::int64_t>(result.detections.events.size());
    return result;
  }

 private:
  // The guard reads a run only through the Simulator introspection hooks;
  // this view forwards them to the backend. The tick loop above drives the
  // backend directly, so the view's own run entry points are never used.
  class View final : public sim::Simulator {
   public:
    explicit View(const TracedRun& run) : run_(run) {}
    void watch_road(RoadId, std::string) override { unused(); }
    stats::RunResult& run_until(double) override { unused(); }
    stats::RunResult finish(double) override { unused(); }
    [[nodiscard]] double now() const noexcept override { return run_.backend_->now(); }
    [[nodiscard]] int vehicles_in_network() const override {
      return run_.backend_->vehicles_in_network();
    }
    [[nodiscard]] int road_occupancy(RoadId road) const override {
      return run_.backend_->road_occupancy(road);
    }
    [[nodiscard]] int queued_on_road(RoadId road) const override {
      return run_.backend_->queued_on_road(road);
    }
    [[nodiscard]] net::PhaseIndex displayed_phase(IntersectionId node) const override {
      return run_.backend_->displayed_phase(node);
    }
    [[nodiscard]] const net::Network& network() const noexcept override {
      return *run_.network_;
    }

   private:
    [[noreturn]] static void unused() {
      throw std::logic_error("TracedRun view is read-only");
    }
    const TracedRun& run_;
  };

  // Capacity events and guard checks due after this tick, applied as the
  // simulator adapter applies them at the end of each run_until slice.
  void after_tick() {
    const double now_s = backend_->now();
    const bool event_due =
        next_event_ < events_.size() && events_[next_event_].time_s <= now_s;
    const bool guard_due = guard_ && now_s >= next_guard_s_;
    if (!event_due && !guard_due) return;
    const Clock::time_point begin = Clock::now();
    while (next_event_ < events_.size() && events_[next_event_].time_s <= now_s) {
      backend_->set_road_capacity(events_[next_event_].road, events_[next_event_].capacity);
      ++next_event_;
    }
    if (guard_due) {
      stats::RunResult& result = backend_->run_until(now_s);  // no-op: returns the result
      guard_->check(view_, result.metrics, result.guard);
      while (next_guard_s_ <= now_s) next_guard_s_ += config_.guard.interval_s;
    }
    trace_.add_self("sim", ns_between(begin, Clock::now()));
  }

  void sample_active_set() {
    const net::Network& network = *network_;
    occupied_.assign(network.roads().size(), 0);
    std::int64_t roads = 0;
    for (const net::Road& road : network.roads()) {
      if (backend_->road_occupancy(road.id) > 0) {
        occupied_[road.id.index()] = 1;
        ++roads;
      }
    }
    std::int64_t junctions = 0;
    for (const net::Intersection& node : network.intersections()) {
      const bool active = std::any_of(node.incoming.begin(), node.incoming.end(),
                                      [&](RoadId r) { return r.valid() && occupied_[r.index()]; });
      junctions += active ? 1 : 0;
    }
    layers_.active_road_sum +=
        static_cast<double>(roads) / static_cast<double>(network.roads().size());
    layers_.active_junction_sum += static_cast<double>(junctions) /
                                   static_cast<double>(network.intersections().size());
    ++layers_.active_samples;
  }

  // Same merge as the simulator adapter: junction event streams in (time,
  // row, col) order, samples summed.
  void export_detections(stats::RunResult& result) const {
    if (adaptive_.empty()) return;
    result.detections.samples = 0;
    result.detections.events.clear();
    for (const core::AdaptiveController* controller : adaptive_) {
      const detect::JunctionMonitor& monitor = controller->monitor();
      result.detections.samples += monitor.samples();
      result.detections.events.insert(result.detections.events.end(),
                                      monitor.events().begin(), monitor.events().end());
    }
    std::stable_sort(result.detections.events.begin(), result.detections.events.end(),
                     [](const stats::DetectionEvent& a, const stats::DetectionEvent& b) {
                       return a.time_s < b.time_s;
                     });
  }

  const scenario::ScenarioConfig& config_;
  Trace& trace_;
  RunLayers& layers_;
  TickStats& ticks_;
  const char* backend_layer_;
  bool keep_ticks_;
  DecideClock decide_;
  std::vector<const core::AdaptiveController*> adaptive_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<traffic::DemandGenerator> demand_;
  std::unique_ptr<Backend> backend_;
  std::vector<sim::CapacityEvent> events_;
  std::size_t next_event_ = 0;
  std::optional<sim::SimulatorGuard> guard_;
  double next_guard_s_ = 0.0;
  std::vector<char> occupied_;
  View view_{*this};
};

stats::RunResult traced_run(const scenario::ScenarioConfig& config, Trace& trace,
                            RunLayers& layers, bool keep_ticks) {
  if (config.simulator == scenario::SimulatorKind::Micro) {
    TracedRun<microsim::MicroSim> run(config, trace, layers, layers.micro, "microsim",
                                      keep_ticks);
    return run.run();
  }
  TracedRun<queuesim::QueueSim> run(config, trace, layers, layers.queue, "queuesim",
                                    keep_ticks);
  return run.run();
}

// Standalone replay of a run's demand: DemandGenerator::poll_into over the
// same per-tick windows the backend polls. Returns ns per tick and checks
// the replay generates what the run generated.
double poll_ns_per_tick(const scenario::ScenarioConfig& config, std::size_t generated,
                        Checks& checks, Trace& trace) {
  const net::Network network = sim::build_validated(sim::effective_grid(config));
  traffic::DemandGenerator demand(network, config.demand, config.seed);
  const double dt = config.simulator == scenario::SimulatorKind::Micro
                        ? config.micro.dt_s
                        : config.queue.step_s;
  std::vector<traffic::SpawnRequest> spawns;
  std::int64_t ticks = 0;
  const Clock::time_point begin = Clock::now();
  for (double now = 0.0; now < config.duration_s; now += dt, ++ticks) {
    demand.poll_into(now, now + dt, spawns);
  }
  const Clock::time_point end = Clock::now();
  trace.span("traffic.poll_replay", "traffic", begin, end);
  checks.expect(demand.total_generated() == generated,
                "demand replay generates the run's vehicles");
  return ticks == 0 ? 0.0
                    : static_cast<double>(ns_between(begin, end)) / static_cast<double>(ticks);
}

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class MetricSet {
 public:
  void add(std::string name, double value, const char* unit) {
    metrics_.push_back({std::move(name), value, unit});
  }
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Time-valued per-layer metrics collected per traced repeat and reported as
// medians; counts are taken from the first traced repeat and must repeat.
using LayerValues = std::vector<std::pair<std::string, double>>;

void add_tick_metrics(LayerValues& v, const char* prefix, const TickStats& t, bool micro) {
  const std::string p = prefix;
  v.emplace_back(p + ".tick_ns_p50", quantile_ns(t.tick_ns, 0.50));
  v.emplace_back(p + ".tick_ns_p99", quantile_ns(t.tick_ns, 0.99));
  if (micro) {
    v.emplace_back(p + ".control_tick_ns",
                   t.control_ticks == 0 ? 0.0
                                        : static_cast<double>(t.control_ns) /
                                              static_cast<double>(t.control_ticks));
    v.emplace_back(p + ".plain_tick_ns",
                   t.plain_ticks == 0 ? 0.0
                                      : static_cast<double>(t.plain_ns) /
                                            static_cast<double>(t.plain_ticks));
  }
  v.emplace_back(p + ".self_s", static_cast<double>(t.total_ns - t.decide_ns) * 1e-9);
}

// The run-level layer metrics of a RunLayers total. Stage and finish times
// are means per traced run (one run for the single-run workloads).
void add_run_layer_metrics(LayerValues& v, const RunLayers& l) {
  const double runs = static_cast<double>(std::max<std::int64_t>(l.runs, 1));
  const std::int64_t tick_ns = l.micro.total_ns + l.queue.total_ns;
  v.emplace_back("net.build_s", static_cast<double>(l.net_build_ns) * 1e-9 / runs);
  v.emplace_back("core.make_controllers_s",
                 static_cast<double>(l.make_controllers_ns) * 1e-9 / runs);
  v.emplace_back("sim.construct_backend_s", static_cast<double>(l.construct_ns) * 1e-9 / runs);
  v.emplace_back("core.decide_ns", l.decide_calls == 0
                                       ? 0.0
                                       : static_cast<double>(l.decide_ns) /
                                             static_cast<double>(l.decide_calls));
  v.emplace_back("core.decide_share", tick_ns == 0 ? 0.0
                                                   : static_cast<double>(l.decide_ns) /
                                                         static_cast<double>(tick_ns));
  v.emplace_back("sim.active_road_frac",
                 l.active_samples == 0 ? 0.0
                                       : l.active_road_sum /
                                             static_cast<double>(l.active_samples));
  v.emplace_back("sim.active_junction_frac",
                 l.active_samples == 0 ? 0.0
                                       : l.active_junction_sum /
                                             static_cast<double>(l.active_samples));
  add_tick_metrics(v, "microsim", l.micro, true);
  add_tick_metrics(v, "queuesim", l.queue, false);
  v.emplace_back("sim.finish_s", static_cast<double>(l.finish_ns) * 1e-9 / runs);
}

std::vector<std::pair<std::string, double>> run_layer_counts(const RunLayers& l) {
  return {{"core.decide_calls", static_cast<double>(l.decide_calls)},
          {"sim.vehicle_steps", static_cast<double>(l.vehicle_steps)},
          {"detect.samples", static_cast<double>(l.detect_samples)},
          {"detect.events", static_cast<double>(l.detect_events)},
          {"sim.capacity_events", static_cast<double>(l.capacity_events)},
          {"sim.guard_checks", static_cast<double>(l.guard_checks)}};
}

// Units of the per-layer metrics, in the order they are reported.
const std::vector<std::pair<std::string, const char*>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, const char*>> units = {
      {"scenario.load_s", "s"},          {"net.build_s", "s"},
      {"core.make_controllers_s", "s"},  {"sim.construct_backend_s", "s"},
      {"sim.make_simulator_s", "s"},     {"core.decide_calls", "count"},
      {"core.decide_ns", "ns"},          {"core.decide_share", "ratio"},
      {"sim.vehicle_steps", "count"},    {"sim.active_road_frac", "ratio"},
      {"sim.active_junction_frac", "ratio"},
      {"microsim.tick_ns_p50", "ns"},    {"microsim.tick_ns_p99", "ns"},
      {"microsim.control_tick_ns", "ns"}, {"microsim.plain_tick_ns", "ns"},
      {"microsim.self_s", "s"},          {"queuesim.tick_ns_p50", "ns"},
      {"queuesim.tick_ns_p99", "ns"},    {"queuesim.self_s", "s"},
      {"sim.finish_s", "s"},             {"traffic.poll_ns_per_tick", "ns"},
      {"detect.samples", "count"},       {"detect.events", "count"},
      {"sim.capacity_events", "count"},  {"sim.guard_checks", "count"},
      {"surrogate.calibrate_s", "s"},    {"surrogate.calibrate_evals", "count"},
      {"surrogate.sweep_s", "s"},        {"surrogate.spot_checks", "count"},
      {"exp.queue_batch_s", "s"},        {"exp.spot_batch_s", "s"},
      {"exp.runs", "count"},             {"exp.failed_runs", "count"},
      {"exp.parallel_eff", "ratio"},     {"trace.overhead", "ratio"},
  };
  return units;
}

// Medians of the time metrics over traced repeats; counts from the first
// repeat, checked equal on every later one.
class LayerCollector {
 public:
  void add_repeat(const LayerValues& times, const LayerValues& counts, Checks& checks) {
    for (const auto& [name, value] : times) times_[name].push_back(value);
    if (counts_.empty()) {
      counts_ = counts;
    } else {
      checks.expect(counts == counts_, "count metrics repeat exactly across traced repeats");
    }
  }
  void finish(MetricSet& out) const {
    std::map<std::string, double> values;
    for (const auto& [name, samples] : times_) values[name] = median(samples);
    for (const auto& [name, value] : counts_) values[name] = value;
    for (const auto& [name, unit] : layer_metric_units()) {
      const auto it = values.find(name);
      out.add(name, it == values.end() ? 0.0 : it->second, unit);
    }
  }

 private:
  std::map<std::string, std::vector<double>> times_;
  LayerValues counts_;
};

// Self time per layer over the first traced repeat; what no layer span
// covers is the harness's own time (timers, active-set scans, replays'
// bookkeeping), printed as "perfbench".
void print_layer_summary(const Trace& trace, double traced_wall_s) {
  std::int64_t attributed = 0;
  for (const auto& [layer, ns] : trace.self_ns()) attributed += ns;
  std::printf("self time by layer (first traced repeat, %.4f s wall):\n", traced_wall_s);
  const auto row = [&](const std::string& layer, double s) {
    std::printf("  layer %-10s self_s %10.4f  share %5.1f%%\n", layer.c_str(), s,
                100.0 * s / traced_wall_s);
  };
  for (const auto& [layer, ns] : trace.self_ns()) {
    if (layer != "perfbench") row(layer, static_cast<double>(ns) * 1e-9);
  }
  row("perfbench", traced_wall_s - static_cast<double>(attributed) * 1e-9);
}

// ------------------------------------------------------------------ repeats

void print_repeats(const std::vector<double>& walls, std::size_t setups) {
  std::printf("repeats %zu setups %zu wall_s min %.6f median %.6f max %.6f, each:",
              walls.size(), setups, fastest(walls), median(walls),
              *std::max_element(walls.begin(), walls.end()));
  for (const double w : walls) std::printf(" %.4f", w);
  std::printf("\n");
}

// Closed-loop repeat budget: at least `min_repeats`, then until `seconds` of
// measurement have elapsed.
class Budget {
 public:
  Budget(double seconds, int min_repeats)
      : start_(Clock::now()), seconds_(seconds), min_repeats_(min_repeats) {}
  [[nodiscard]] bool more(int done) const {
    return done < min_repeats_ || seconds_between(start_, Clock::now()) < seconds_;
  }

 private:
  Clock::time_point start_;
  double seconds_;
  int min_repeats_;
};

constexpr int kMinRepeats = 3;

struct Result {
  MetricSet metrics;
  Checks checks;
};

// What a workload's repeat loop collects, and the metrics made from it.
struct Measurements {
  std::vector<double> setup_samples;
  std::vector<double> walls;
  // Per segment of the job, its fastest time over the repeats.
  std::vector<double> fastest_segments;
  LayerCollector layers;
  std::optional<Trace> first_trace;

  // Records one repeat of the job, timed segment by segment.
  void add_repeat(const std::vector<double>& segments) {
    walls.push_back(sum(segments));
    if (fastest_segments.empty()) fastest_segments = segments;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      fastest_segments[i] = std::min(fastest_segments[i], segments[i]);
    }
  }

  // The job's wall: the sum of its segments' fastest times.
  [[nodiscard]] double job_s() const { return sum(fastest_segments); }

  // Keeps the first traced repeat's spans for the trace file.
  void keep_first(Trace&& trace, double traced_wall_s) {
    if (first_trace) return;
    first_trace.emplace(std::move(trace));
    print_layer_summary(*first_trace, traced_wall_s);
  }

  // `step_s` over `vehicle_steps` gives ns_per_vehicle_step; `runs` jobs per
  // job wall give runs_per_s.
  void report(const Options& opt, double step_s, std::int64_t vehicle_steps,
              std::int64_t runs, MetricSet& out) const {
    if (opt.trace) {
      layers.finish(out);
      if (first_trace && !opt.trace_out.empty()) {
        first_trace->write(opt.trace_out, opt.workload, opt.seed);
        std::printf("trace written to %s\n", opt.trace_out.c_str());
      }
    } else {
      out.add("setup_s", fastest(setup_samples), "s");
      out.add("wall_s", job_s(), "s");
      out.add("ns_per_vehicle_step",
              step_s * 1e9 / static_cast<double>(std::max<std::int64_t>(vehicle_steps, 1)),
              "ns");
      out.add("runs_per_s", static_cast<double>(runs) / job_s(), "1/s");
    }
    print_repeats(walls, setup_samples.size());
    std::printf("job_s (sum of %zu segment minima) %.6f\n", fastest_segments.size(), job_s());
  }
};

void print_run_summary(const char* label, const stats::RunResult& r) {
  std::printf(
      "%s: digest %s completed %zu entered %zu in_network_at_end %zu avg_queuing_s %.6f "
      "detections %zu detect_samples %zu guard_checks %zu guard_violations %zu\n",
      label, hex(result_digest(r)).c_str(), r.metrics.completed, r.metrics.entered,
      r.metrics.in_network_at_end, r.metrics.average_queuing_time_s(),
      r.detections.events.size(), r.detections.samples, r.guard.checks,
      r.guard.violations.size());
}

// ---- single-run workloads

struct SingleSetup {
  scenario::ScenarioConfig config;
  std::unique_ptr<sim::Simulator> sim;
  double make_simulator_s = 0.0;
};

SingleSetup setup_single(const std::string& text) {
  SingleSetup s;
  s.config = scenario::load_scenario(text);
  const Clock::time_point begin = Clock::now();
  s.sim = sim::make_simulator(s.config);
  s.make_simulator_s = seconds_between(begin, Clock::now());
  return s;
}

// Set-ups per repeat: set-up is short next to the job, so several samples per
// repeat give setup_s many draws. The last one runs the job.
constexpr int kSetupsPerRepeat = 3;

// The untraced job runs as this many equal slices of the horizon, each a
// run_until call (the last is finish) with its own timer. Any split of the
// horizon gives the same result (checked: every repeat reproduces the
// warm-up digest).
constexpr int kSegments = 60;

struct SingleRepeat {
  double make_simulator_s = 0.0;
  std::vector<double> segment_walls;
  std::uint64_t digest = 0;
};

SingleRepeat untraced_single(const std::string& text, std::vector<double>& setup_samples,
                             Checks& checks, bool guarded) {
  SingleRepeat rep;
  std::optional<SingleSetup> ready;
  std::vector<double> make_sim;
  for (int i = 0; i < kSetupsPerRepeat; ++i) {
    ready.reset();
    const Clock::time_point begin = Clock::now();
    ready.emplace(setup_single(text));
    setup_samples.push_back(seconds_between(begin, Clock::now()));
    make_sim.push_back(ready->make_simulator_s);
  }
  rep.make_simulator_s = median(make_sim);
  checks.count_run();
  sim::Simulator& sim = *ready->sim;
  const double duration_s = ready->config.duration_s;
  for (int k = 1; k < kSegments; ++k) {
    const Clock::time_point begin = Clock::now();
    sim.run_until(duration_s * k / kSegments);
    rep.segment_walls.push_back(seconds_between(begin, Clock::now()));
  }
  const Clock::time_point begin = Clock::now();
  const stats::RunResult result = sim.finish(duration_s);
  rep.segment_walls.push_back(seconds_between(begin, Clock::now()));
  rep.digest = result_digest(result);
  check_conservation(checks, result, "untraced run");
  if (guarded) checks.expect(result.guard.violations.empty(), "guard_violations == 0");
  return rep;
}

Result run_single(const Options& opt, const std::string& text) {
  Result out;
  Checks& checks = out.checks;
  const scenario::ScenarioConfig config = scenario::load_scenario(text);
  const bool guarded = config.guard.enabled;

  // Warm-up: one untimed run through the public Simulator interface, stepped
  // one tick at a time to count vehicle-steps (the ns_per_vehicle_step
  // denominator) — and the reference digest every later run must reproduce.
  std::int64_t vehicle_steps = 0;
  std::uint64_t reference = 0;
  stats::RunResult warm;
  {
    SingleSetup ready = setup_single(text);
    sim::Simulator& sim = *ready.sim;
    checks.count_run();
    while (sim.now() < config.duration_s) {
      sim.run_until(std::nextafter(sim.now(), std::numeric_limits<double>::infinity()));
      vehicle_steps += sim.vehicles_in_network();
    }
    warm = sim.finish(config.duration_s);
    reference = result_digest(warm);
    check_conservation(checks, warm, "warm-up run");
    if (guarded) checks.expect(warm.guard.violations.empty(), "guard_violations == 0");
  }
  print_run_summary("result", warm);
  std::printf("vehicle_steps %lld\n", static_cast<long long>(vehicle_steps));

  Measurements m;
  CpuRotation rotation;
  const Clock::time_point origin = Clock::now();
  const Budget budget(opt.seconds, opt.trace ? 1 : kMinRepeats);
  for (int done = 0; budget.more(done); ++done) {
    rotation.next();
    const SingleRepeat rep = untraced_single(text, m.setup_samples, checks, guarded);
    checks.expect(rep.digest == reference, "repeat digest equals the warm-up digest");
    m.add_repeat(rep.segment_walls);
    if (!opt.trace) continue;

    // Traced repeat: the same job assembled stage by stage, spans kept only
    // for the first one (written to the trace file).
    Trace trace(origin);
    trace.keep_spans(!m.first_trace.has_value());
    RunLayers layers;
    const Clock::time_point t0 = Clock::now();
    const scenario::ScenarioConfig cfg = scenario::load_scenario(text);
    const Clock::time_point t1 = Clock::now();
    trace.span("scenario.load", "scenario", t0, t1);
    checks.count_run();
    const stats::RunResult traced = traced_run(cfg, trace, layers, true);
    checks.expect(result_digest(traced) == reference,
                  "traced digest equals the untraced digest");
    checks.expect(layers.vehicle_steps == vehicle_steps,
                  "traced vehicle-steps equal the warm-up count");
    check_conservation(checks, traced, "traced run");
    const double poll_ns = poll_ns_per_tick(cfg, traced.metrics.generated, checks, trace);

    const double traced_s = static_cast<double>(layers.run_ns) * 1e-9;
    LayerValues times = {{"scenario.load_s", seconds_between(t0, t1)},
                         {"traffic.poll_ns_per_tick", poll_ns},
                         {"sim.make_simulator_s", rep.make_simulator_s},
                         {"trace.overhead", traced_s / sum(rep.segment_walls)}};
    add_run_layer_metrics(times, layers);
    m.layers.add_repeat(times, run_layer_counts(layers), checks);
    m.keep_first(std::move(trace), seconds_between(t0, Clock::now()));
  }
  m.report(opt, m.job_s(), vehicle_steps, 1, out.metrics);
  return out;
}

// ---- the surrogate sweep

// bench_surrogate_sweep's axes and protocol: 4 controllers x 5 patterns x 14
// periods (215 points, UTIL-BP crossed with the first period only).
struct SweepPlan {
  surrogate::SweepAxes axes;
  surrogate::CalibrationOptions calibration;
  surrogate::SweepOptions sweep;
};

constexpr int kSweepJobs = 2;

SweepPlan sweep_plan(const scenario::ScenarioConfig& base) {
  SweepPlan plan;
  plan.axes.controllers = {core::ControllerType::UtilBp, core::ControllerType::CapBp,
                           core::ControllerType::OriginalBp, core::ControllerType::FixedTime};
  plan.axes.patterns = {traffic::PatternKind::I, traffic::PatternKind::II,
                        traffic::PatternKind::III, traffic::PatternKind::IV,
                        traffic::PatternKind::Mixed};
  plan.axes.periods_s = {6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32};
  plan.calibration.replications = 3;
  plan.calibration.duration_s = base.duration_s / 3.0;
  plan.calibration.profile_name = "perfbench-3x3";
  plan.calibration.jobs = kSweepJobs;
  plan.sweep.best_k = 8;
  plan.sweep.sample_fraction = 0.05;
  plan.sweep.spot_replications = 5;
  plan.sweep.jobs = kSweepJobs;
  return plan;
}

struct SweepOutcome {
  surrogate::CalibrationProfile profile;
  surrogate::SweepReport report;
  std::string report_json;
  // Job start, calibration end, sweep end.
  Clock::time_point t0, t1, t2;
  [[nodiscard]] double calibrate_s() const { return seconds_between(t0, t1); }
  [[nodiscard]] double sweep_s() const { return seconds_between(t1, t2); }
};

SweepOutcome run_sweep_job(const scenario::ScenarioConfig& base, const SweepPlan& plan) {
  SweepOutcome out;
  out.t0 = Clock::now();
  out.profile = surrogate::calibrate(base, plan.calibration);
  out.t1 = Clock::now();
  out.report = surrogate::surrogate_sweep(base, out.profile, plan.axes, plan.sweep);
  out.report_json = surrogate::dump_report(out.report);
  out.t2 = Clock::now();
  return out;
}

// Simulator runs the job executes: the calibration's micro targets and
// candidate evaluations, one queue run per point, the spot-check replications.
std::int64_t sweep_job_runs(const SweepPlan& plan, const SweepOutcome& o) {
  return static_cast<std::int64_t>(plan.calibration.replications) *
             (1 + o.profile.evaluations) +
         static_cast<std::int64_t>(o.report.rows.size()) +
         static_cast<std::int64_t>(o.report.spot_checks) * plan.sweep.spot_replications;
}

// The sweep's two batches rebuilt from its inputs and report, exactly as
// surrogate_sweep builds them (checked: replays reproduce the report).
std::vector<scenario::ScenarioConfig> queue_stage_configs(const scenario::ScenarioConfig& base,
                                                          const SweepPlan& plan,
                                                          const SweepOutcome& o) {
  std::vector<scenario::ScenarioConfig> configs;
  for (const surrogate::SweepPoint& point : surrogate::axis_points(plan.axes)) {
    scenario::ScenarioConfig cfg = base;
    cfg.simulator = scenario::SimulatorKind::Queue;
    surrogate::apply_profile(o.profile, cfg);
    surrogate::apply_sweep_point(cfg, point);
    configs.push_back(std::move(cfg));
  }
  return configs;
}

std::vector<scenario::ScenarioConfig> spot_stage_configs(const scenario::ScenarioConfig& base,
                                                         const SweepPlan& plan,
                                                         const SweepOutcome& o) {
  std::vector<scenario::ScenarioConfig> configs;
  for (const surrogate::SweepRow& row : o.report.rows) {
    if (!row.spot_checked) continue;
    scenario::ScenarioConfig cfg = base;
    cfg.simulator = scenario::SimulatorKind::Micro;
    cfg.surrogate = scenario::SurrogateConfig{};
    surrogate::apply_sweep_point(cfg, row.point);
    for (scenario::ScenarioConfig& rep :
         exp::replication_configs(cfg, plan.sweep.spot_replications)) {
      configs.push_back(std::move(rep));
    }
  }
  return configs;
}

std::vector<surrogate::MetricVector> metric_vectors(
    const std::vector<stats::RunResult>& results) {
  std::vector<surrogate::MetricVector> out;
  for (const stats::RunResult& r : results) out.push_back(surrogate::extract_metrics(r));
  return out;
}

// Checks replayed runs against the report: each queue run's metric vector
// equals its row's surrogate vector, and each spot-checked row's micro mean
// equals the mean over its replayed replications.
void check_against_report(const std::vector<surrogate::MetricVector>& queue_metrics,
                          const std::vector<surrogate::MetricVector>& spot_metrics,
                          const SweepPlan& plan, const SweepOutcome& o, Checks& checks) {
  bool queue_ok = queue_metrics.size() == o.report.rows.size();
  for (std::size_t i = 0; queue_ok && i < queue_metrics.size(); ++i) {
    queue_ok = queue_metrics[i] == o.report.rows[i].surrogate;
  }
  checks.expect(queue_ok, "replayed queue runs reproduce the report's surrogate metrics");
  const auto reps = static_cast<std::size_t>(plan.sweep.spot_replications);
  bool spot_ok = spot_metrics.size() == static_cast<std::size_t>(o.report.spot_checks) * reps;
  std::size_t next = 0;
  for (const surrogate::SweepRow& row : o.report.rows) {
    if (!spot_ok) break;
    if (!row.spot_checked) continue;
    std::array<Accumulator, surrogate::kMetricCount> acc;
    for (std::size_t r = 0; r < reps; ++r, ++next) {
      for (std::size_t c = 0; c < surrogate::kMetricCount; ++c) {
        acc[c].add(spot_metrics[next][c]);
      }
    }
    for (std::size_t c = 0; c < surrogate::kMetricCount; ++c) {
      spot_ok = spot_ok && acc[c].mean() == row.spot.micro_mean[c];
    }
  }
  checks.expect(spot_ok, "replayed spot checks reproduce the report's micro means");
}

// Untimed serial replay through make_simulator, one tick at a time: counts
// the vehicle-steps of the sweep's runs and checks them. Keeps only each
// run's metric vector, so the replay does not raise the peak RSS.
std::int64_t count_sweep_steps(const std::vector<scenario::ScenarioConfig>& queue_configs,
                               const std::vector<scenario::ScenarioConfig>& spot_configs,
                               const SweepPlan& plan, const SweepOutcome& o,
                               Checks& checks) {
  std::int64_t steps = 0;
  const auto replay = [&](const std::vector<scenario::ScenarioConfig>& configs) {
    std::vector<surrogate::MetricVector> metrics;
    for (const scenario::ScenarioConfig& cfg : configs) {
      const std::unique_ptr<sim::Simulator> s = sim::make_simulator(cfg);
      while (s->now() < cfg.duration_s) {
        s->run_until(std::nextafter(s->now(), std::numeric_limits<double>::infinity()));
        steps += s->vehicles_in_network();
      }
      const stats::RunResult result = s->finish(cfg.duration_s);
      check_conservation(checks, result, "sweep replay run");
      metrics.push_back(surrogate::extract_metrics(result));
    }
    return metrics;
  };
  const std::vector<surrogate::MetricVector> queue_metrics = replay(queue_configs);
  const std::vector<surrogate::MetricVector> spot_metrics = replay(spot_configs);
  check_against_report(queue_metrics, spot_metrics, plan, o, checks);
  return steps;
}

struct SweepSetup {
  scenario::ScenarioConfig base;
  std::unique_ptr<exp::ExperimentRunner> runner;
};

// calibrate() and surrogate_sweep() take batch options, not a runner, and
// each builds its own; setup_s times one such construction (its worker
// threads included) next to loading the base scenario.
SweepSetup setup_sweep(const std::string& text) {
  SweepSetup s;
  s.base = scenario::load_scenario(text);
  s.runner = std::make_unique<exp::ExperimentRunner>(exp::BatchOptions{.jobs = kSweepJobs});
  return s;
}

// Sweep set-up is microseconds; many samples per repeat steady its minimum.
constexpr int kSweepSetupsPerRepeat = 25;

std::vector<stats::RunResult> timed_batch(const std::vector<scenario::ScenarioConfig>& configs,
                                          int jobs, const char* name, Trace& trace,
                                          double& seconds, std::int64_t& failed) {
  exp::ExperimentRunner runner(exp::BatchOptions{.jobs = jobs});
  const Clock::time_point begin = Clock::now();
  std::vector<exp::RunStatus> statuses = runner.run_statuses(configs);
  const Clock::time_point end = Clock::now();
  trace.span(name, "exp", begin, end);
  seconds = seconds_between(begin, end);
  std::vector<stats::RunResult> results;
  for (exp::RunStatus& s : statuses) {
    failed += s.ok() ? 0 : 1;
    results.push_back(std::move(s.result));
  }
  return results;
}

Result run_sweep(const Options& opt, const std::string& text) {
  Result out;
  Checks& checks = out.checks;
  const scenario::ScenarioConfig base = scenario::load_scenario(text);
  const SweepPlan plan = sweep_plan(base);

  // Warm-up: one untimed job, its reference report, and the counted replay.
  const SweepOutcome warm = run_sweep_job(base, plan);
  const std::int64_t runs = sweep_job_runs(plan, warm);
  checks.count_run();
  const std::vector<scenario::ScenarioConfig> queue_configs =
      queue_stage_configs(base, plan, warm);
  const std::vector<scenario::ScenarioConfig> spot_configs =
      spot_stage_configs(base, plan, warm);
  const std::int64_t vehicle_steps =
      count_sweep_steps(queue_configs, spot_configs, plan, warm, checks);
  std::printf(
      "result: report digest %s points %zu spot_checks %d flagged %d calibrate_evals %d "
      "profile service %.6f transit %.6f capacity %.6f\n",
      hex(text_digest(warm.report_json)).c_str(), warm.report.rows.size(),
      warm.report.spot_checks, warm.report.flagged, warm.profile.evaluations,
      warm.profile.service_scale, warm.profile.transit_scale, warm.profile.capacity_scale);
  std::printf("runs %lld vehicle_steps %lld (sweep stage)\n", static_cast<long long>(runs),
              static_cast<long long>(vehicle_steps));

  Measurements m;
  const Clock::time_point origin = Clock::now();
  const Budget budget(opt.seconds, opt.trace ? 1 : kMinRepeats);
  for (int done = 0; budget.more(done); ++done) {
    std::optional<SweepSetup> ready;
    for (int i = 0; i < kSweepSetupsPerRepeat; ++i) {
      ready.reset();
      const Clock::time_point begin = Clock::now();
      ready.emplace(setup_sweep(text));
      m.setup_samples.push_back(seconds_between(begin, Clock::now()));
    }
    checks.count_run();
    const SweepOutcome o = run_sweep_job(ready->base, plan);
    checks.expect(o.report_json == warm.report_json,
                  "dump_report is byte-identical across repeats");
    m.add_repeat({o.calibrate_s(), o.sweep_s()});
    if (!opt.trace) continue;

    // The job's own stages come from the untraced repeat above: calibrate()
    // and surrogate_sweep() run their batches internally, so tracing cannot
    // reach inside them. The layers below them are measured by replays.
    Trace trace(origin);
    trace.keep_spans(!m.first_trace.has_value());
    trace.span("surrogate.calibrate", "surrogate", o.t0, o.t1);
    trace.span("surrogate.sweep", "surrogate", o.t1, o.t2);
    const Clock::time_point t0 = Clock::now();
    static_cast<void>(scenario::load_scenario(text));
    const Clock::time_point t1 = Clock::now();
    trace.span("scenario.load", "scenario", t0, t1);

    // Batch replays of the sweep's two stages, at jobs 2 and at jobs 1 (the
    // serial walls give the parallel efficiency and the untraced side of
    // trace.overhead), then a serial traced replay of every run.
    std::int64_t failed_runs = 0;
    double queue_batch_s = 0.0;
    double queue_serial_s = 0.0;
    double spot_batch_s = 0.0;
    double spot_serial_s = 0.0;
    const std::vector<stats::RunResult> queue_results = timed_batch(
        queue_configs, kSweepJobs, "exp.queue_batch", trace, queue_batch_s, failed_runs);
    const std::vector<stats::RunResult> serial_results = timed_batch(
        queue_configs, 1, "exp.queue_batch_serial", trace, queue_serial_s, failed_runs);
    const std::vector<stats::RunResult> spot_results = timed_batch(
        spot_configs, kSweepJobs, "exp.spot_batch", trace, spot_batch_s, failed_runs);
    const std::vector<stats::RunResult> spot_serial_results = timed_batch(
        spot_configs, 1, "exp.spot_batch_serial", trace, spot_serial_s, failed_runs);
    check_against_report(metric_vectors(queue_results), metric_vectors(spot_results), plan,
                         warm, checks);

    RunLayers layers;
    std::int64_t make_sim_ns = 0;
    bool replay_ok = true;
    const auto replay = [&](const std::vector<scenario::ScenarioConfig>& configs,
                            const std::vector<stats::RunResult>& batch) {
      for (std::size_t i = 0; i < configs.size(); ++i) {
        const Clock::time_point begin = Clock::now();
        { const std::unique_ptr<sim::Simulator> s = sim::make_simulator(configs[i]); }
        make_sim_ns += ns_between(begin, Clock::now());
        checks.count_run();
        const stats::RunResult r = traced_run(configs[i], trace, layers, false);
        replay_ok = replay_ok && result_digest(r) == result_digest(batch[i]);
      }
    };
    const Clock::time_point r0 = Clock::now();
    replay(queue_configs, serial_results);
    replay(spot_configs, spot_results);
    const Clock::time_point r1 = Clock::now();
    trace.span("perfbench.serial_replay", "perfbench", r0, r1, 0);
    checks.expect(replay_ok, "serial traced replay digests equal the batch digests");
    checks.expect(layers.vehicle_steps == vehicle_steps,
                  "traced vehicle-steps equal the warm-up count");
    const auto same_digests = [](const std::vector<stats::RunResult>& a,
                                 const std::vector<stats::RunResult>& b) {
      bool same = a.size() == b.size();
      for (std::size_t i = 0; same && i < a.size(); ++i) {
        same = result_digest(a[i]) == result_digest(b[i]);
      }
      return same;
    };
    checks.expect(same_digests(queue_results, serial_results) &&
                      same_digests(spot_results, spot_serial_results),
                  "batch digests equal at jobs 2 and 1");
    const double poll_ns = poll_ns_per_tick(queue_configs.front(),
                                            serial_results.front().metrics.generated,
                                            checks, trace);

    // The traced replay's wall without the extra make_simulator calls that
    // time set-up, against the same runs in the untraced serial batches.
    const double replayed = static_cast<double>(queue_configs.size() + spot_configs.size());
    const double traced_replay_s =
        seconds_between(r0, r1) - static_cast<double>(make_sim_ns) * 1e-9;
    LayerValues times = {
        {"scenario.load_s", seconds_between(t0, t1)},
        {"sim.make_simulator_s", static_cast<double>(make_sim_ns) * 1e-9 / replayed},
        {"traffic.poll_ns_per_tick", poll_ns},
        {"surrogate.calibrate_s", o.calibrate_s()},
        {"surrogate.sweep_s", o.sweep_s()},
        {"exp.queue_batch_s", queue_batch_s},
        {"exp.spot_batch_s", spot_batch_s},
        {"exp.parallel_eff", queue_serial_s / (kSweepJobs * queue_batch_s)},
        {"trace.overhead", traced_replay_s / (queue_serial_s + spot_serial_s)}};
    add_run_layer_metrics(times, layers);
    LayerValues counts = run_layer_counts(layers);
    counts.emplace_back("surrogate.calibrate_evals", o.profile.evaluations);
    counts.emplace_back("surrogate.spot_checks", o.report.spot_checks);
    counts.emplace_back("exp.runs", static_cast<double>(runs));
    counts.emplace_back("exp.failed_runs", static_cast<double>(failed_runs));
    m.layers.add_repeat(times, counts, checks);
    m.keep_first(std::move(trace), seconds_between(o.t0, Clock::now()));
  }

  // ns_per_vehicle_step covers the sweep stage, whose runs were counted.
  m.report(opt, m.fastest_segments.back(), vehicle_steps, runs, out.metrics);
  return out;
}

void print_result(const Options& opt, Result& r) {
  if (!opt.trace) r.metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  const bool correct = r.checks.failed() == 0;
  std::printf("failed_frac %.6f (%lld failed of %lld attempted)\n",
              static_cast<double>(r.checks.failed()) /
                  static_cast<double>(std::max<long long>(r.checks.attempted(), 1)),
              r.checks.failed(), r.checks.attempted());
  for (const Metric& m : r.metrics.all()) {
    std::printf("metric %-28s %.17g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", r.checks.attempted(), r.checks.failed());
  const std::vector<Metric>& all = r.metrics.all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                all[i].name.c_str(), all[i].value, all[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abp_perfbench: %s\n", e.what());
    return 2;
  }
  try {
    const std::string text = workload_text(opt.workload, opt.seed, opt.scale);
    std::printf("workload %s seed %llu scale %g trace %d input digest %s\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.scale,
                opt.trace ? 1 : 0, hex(text_digest(text)).c_str());
    Result result = opt.workload == "sweep3x3_surrogate" ? run_sweep(opt, text)
                                                          : run_single(opt, text);
    print_result(opt, result);
    return result.checks.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    // A run that throws is a failed run: report it and print no result.
    std::fprintf(stderr, "abp_perfbench: run failed: %s\n", e.what());
    return 1;
  }
}
