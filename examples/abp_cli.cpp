// abp_cli: command-line experiment runner over the library's public API.
//
// Runs one scenario and prints the metrics; optionally dumps the queue
// series and the phase trace of a chosen junction as CSV for plotting (exit
// 1 when a --csv file cannot be written).
// With --replications N it runs N seed-replications (seeds seed..seed+N-1)
// through the experiment runner and prints the per-seed results plus the
// mean with a Student-t 95% confidence interval.
//
// Usage:
//   abp_cli [--scenario FILE] [--set PATH=VALUE]... [--dump-scenario]
//           [--print-schema-fields] [--replications N] [--jobs N]
//           [--allow-oversubscribe] [--csv PREFIX] [--incident T]
//           [--calibrate] [--surrogate-sweep] [--profile FILE] [--report FILE]
//           [--sweep-controllers LIST] [--sweep-patterns LIST]
//           [--sweep-periods LIST] [--spot-best-k N] [--spot-fraction F]
//           [--spot-replications N] [--trust-threshold X]
//
// Configuration (docs/SCENARIOS.md): the base is --scenario FILE, a JSON
// scenario (one of the scenarios/ library files or your own), or the paper
// setup (3x3 grid, pattern II, UTIL-BP, 1 h) without it. Each repeatable
// --set PATH=VALUE then sets one schema field, in order, through
// scenario::apply_setting: the same loader, messages and validation as a
// file ("--set grid.rows=8", "--set simulator=queue"; a path ending in "[]"
// appends a list element, "--set faults.sensors[]={...}"). A bad setting
// exits 2 with "abp_cli: <path>: <problem>". --dump-scenario
// prints the merged configuration back as a canonical scenario file instead
// of running (pipe to a file to snapshot a set of settings as a reusable
// scenario); --print-schema-fields lists every settable field path, one per
// line (the docs lint, tools/check_scenario_docs.py, consumes this).
//
// Parallelism (docs/PERFORMANCE.md, "Run-level vs tick-level parallelism"):
// --jobs N runs N independent runs concurrently in --replications and
// surrogate modes; each run's tick is serial. Metrics are bit-identical at
// every --jobs value. The experiment runner refuses more concurrent runs than
// hardware_concurrency (exit 2) unless --allow-oversubscribe is passed
// (oversubscribing only adds contention), as it refuses a replication count
// above its limit.
//
// Fault injection (docs/ROBUSTNESS.md): faults.capacity[], faults.sensors[]
// and faults.controllers[] settings append timed incidents to the run's
// FaultSchedule; --incident T is a canned mixed incident (capacity drop +
// sensor dropout + controller failover) starting at T in [0, duration_s),
// appended after the settings, used by the CI smoke step. guard.* settings
// enable the runtime invariant guard; detector.* settings enable the online
// changepoint detector over the junctions' sensor streams
// (docs/CHANGEPOINT.md), reporting regime-shift events, and detector.adapt
// lets detections re-tune the controllers. In --replications mode a seed
// whose run raises is reported with status=error, the summary is computed
// over the runs that completed, and the exit status is 1.
//
// Surrogate pipeline (docs/PERFORMANCE.md, "Surrogate throughput"):
// --calibrate fits the queue backend to the micro backend for the merged
// base configuration and prints the CalibrationProfile JSON to stdout (pipe
// to a file; --replications sets the paired replications per candidate).
// --surrogate-sweep runs the controller x pattern x period grid given by the
// comma-separated --sweep-* lists (controllers and patterns spelled as in
// scenario files) on the calibrated queue backend, micro spot-checks the
// frontier (--spot-best-k plus a --spot-fraction stratified sample,
// --spot-replications micro seeds each), and prints per-metric surrogate
// error bars; --profile FILE supplies a saved profile (otherwise the sweep
// calibrates first), --report FILE also writes the full report JSON, and
// exit status 4 means some spot-checked config exceeded --trust-threshold
// relative error. Every grid point is validated as a scenario before
// calibration starts, so a bad --sweep-periods value exits 2 at once.
//
// Examples:
//   abp_cli --set demand.pattern=I
//   abp_cli --set demand.pattern=mixed --set duration_s=14400 \
//     --set controller.type=cap --set controller.fixed_slot.period_s=20 --csv out/run1
//   abp_cli --replications 10 --jobs 4
//   abp_cli --set duration_s=900 --incident 300 --set guard.enabled=true \
//     --set guard.policy=record
//   abp_cli --scenario scenarios/rush_hour_ramp.json
//   abp_cli --scenario scenarios/baseline_3x3.json --set controller.type=fixed \
//     --dump-scenario
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/exp/experiment_runner.hpp"
#include "src/scenario/scenario.hpp"
#include "src/scenario/scenario_io.hpp"
#include "src/stats/student_t.hpp"
#include "src/surrogate/calibration_profile.hpp"
#include "src/surrogate/calibrator.hpp"
#include "src/surrogate/sweep.hpp"
#include "src/util/accumulator.hpp"
#include "src/util/csv.hpp"

namespace {

[[noreturn]] void usage_error(const char* message) {
  std::fprintf(stderr, "abp_cli: %s\n", message);
  std::fprintf(stderr,
               "usage: abp_cli [--scenario FILE] [--set PATH=VALUE]... "
               "[--dump-scenario]\n"
               "               [--print-schema-fields] [--replications N] [--jobs N]\n"
               "               [--allow-oversubscribe] [--csv PREFIX] [--incident T]\n"
               "               [--calibrate] [--surrogate-sweep] [--profile FILE]\n"
               "               [--report FILE] [--sweep-controllers LIST]\n"
               "               [--sweep-patterns LIST] [--sweep-periods LIST]\n"
               "               [--spot-best-k N] [--spot-fraction F]\n"
               "               [--spot-replications N] [--trust-threshold X]\n"
               "(--print-schema-fields lists the PATHs --set takes)\n");
  std::exit(2);
}

std::vector<std::string> split_fields(const std::string& s) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(s.substr(start));
      return fields;
    }
    fields.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
}

// --- Strict numeric parsing -------------------------------------------------
// std::atoi/atof silently return 0 on garbage, so "--jobs abc" would run (and
// then fail the range check with a misleading message) and "--jobs 1x" would
// quietly drop the "x". Every numeric flag instead goes through these: the
// whole token must parse, and it must fit the target type, or the run exits
// with a usage error naming the flag.

[[noreturn]] void bad_number(const char* flag, const std::string& s) {
  usage_error((std::string(flag) + ": invalid number \"" + s + "\"").c_str());
}

int parse_int(const std::string& s, const char* flag) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE ||
      v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    bad_number(flag, s);
  }
  return static_cast<int>(v);
}

double parse_double(const std::string& s, const char* flag) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE) bad_number(flag, s);
  return v;
}

// Closes a finished --csv file; false, after saying so, when it could not be
// opened or written.
bool close_csv(std::ofstream& out, const std::string& path) {
  out.close();
  if (out) return true;
  std::fprintf(stderr, "abp_cli: cannot write %s\n", path.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace abp;

  std::string scenario_file;
  // --set PATH=VALUE arguments, applied in order after --scenario.
  std::vector<std::string> settings;
  bool dump_scenario_flag = false;
  bool print_schema_fields = false;
  int replications = 1;
  int jobs = 1;
  bool allow_oversubscribe = false;
  std::optional<double> incident_at;
  std::string csv_prefix;
  bool calibrate_mode = false;
  bool sweep_mode = false;
  std::string profile_file;
  std::string report_file;
  // Sweep axes as the raw comma-separated flag values; parsed after the flag
  // loop so error messages can name the flag.
  std::string sweep_controllers = "util,cap,orig,fixed";
  std::string sweep_patterns = "I,II,III,IV";
  std::string sweep_periods = "12,16,20";
  surrogate::SweepOptions sweep_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--scenario") {
      scenario_file = value();
    } else if (arg == "--set") {
      settings.push_back(value());
    } else if (arg == "--dump-scenario") {
      dump_scenario_flag = true;
    } else if (arg == "--print-schema-fields") {
      print_schema_fields = true;
    } else if (arg == "--replications") {
      replications = parse_int(value(), "--replications");
    } else if (arg == "--jobs") {
      jobs = parse_int(value(), "--jobs");
    } else if (arg == "--allow-oversubscribe") {
      allow_oversubscribe = true;
    } else if (arg == "--incident") {
      incident_at = parse_double(value(), "--incident");
    } else if (arg == "--csv") {
      csv_prefix = value();
    } else if (arg == "--calibrate") {
      calibrate_mode = true;
    } else if (arg == "--surrogate-sweep") {
      sweep_mode = true;
    } else if (arg == "--profile") {
      profile_file = value();
    } else if (arg == "--report") {
      report_file = value();
    } else if (arg == "--sweep-controllers") {
      sweep_controllers = value();
    } else if (arg == "--sweep-patterns") {
      sweep_patterns = value();
    } else if (arg == "--sweep-periods") {
      sweep_periods = value();
    } else if (arg == "--spot-best-k") {
      sweep_options.best_k = parse_int(value(), "--spot-best-k");
    } else if (arg == "--spot-fraction") {
      sweep_options.sample_fraction = parse_double(value(), "--spot-fraction");
    } else if (arg == "--spot-replications") {
      sweep_options.spot_replications = parse_int(value(), "--spot-replications");
    } else if (arg == "--trust-threshold") {
      sweep_options.trust_threshold = parse_double(value(), "--trust-threshold");
    } else if (arg == "--help" || arg == "-h") {
      usage_error("help requested");
    } else {
      usage_error(("unknown argument " + arg).c_str());
    }
  }

  if (print_schema_fields) {
    for (const std::string& path : scenario::schema_field_paths()) {
      std::printf("%s\n", path.c_str());
    }
    return 0;
  }

  if (replications < 1) usage_error("--replications must be >= 1");
  if (jobs < 1 || jobs > 256) usage_error("--jobs must be in [1, 256]");
  if (jobs > 1 && replications == 1 && !calibrate_mode && !sweep_mode) {
    usage_error("--jobs only applies to --replications batches or surrogate modes");
  }
  if (sweep_options.best_k < 0) usage_error("--spot-best-k must be >= 0");
  if (!(sweep_options.sample_fraction >= 0.0 && sweep_options.sample_fraction <= 1.0)) {
    usage_error("--spot-fraction must be in [0, 1]");
  }
  if (sweep_options.spot_replications < 1) {
    usage_error("--spot-replications must be >= 1");
  }
  if (!(sweep_options.trust_threshold > 0.0)) {
    usage_error("--trust-threshold must be > 0");
  }
  if (!profile_file.empty() && !(calibrate_mode || sweep_mode)) {
    usage_error("--profile only applies to --surrogate-sweep (or --calibrate)");
  }
  if (!report_file.empty() && !sweep_mode) {
    usage_error("--report only applies to --surrogate-sweep");
  }

  // Base configuration: the scenario file when given, the paper setup
  // otherwise. Settings then override field by field, so
  // `--scenario X --set seed=7` is X's run at a different seed, nothing more.
  scenario::ScenarioConfig cfg;
  if (!scenario_file.empty()) {
    try {
      cfg = scenario::load_scenario_file(scenario_file);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "abp_cli: %s: %s\n", scenario_file.c_str(), e.what());
      return 1;
    }
  } else {
    cfg = scenario::paper_scenario(traffic::PatternKind::II,
                                   core::ControllerType::UtilBp);
  }
  // The sweep axes are spelled like the schema fields they vary, and read
  // through them.
  surrogate::SweepAxes axes;
  try {
    for (const std::string& setting : settings) {
      const std::size_t eq = setting.find('=');
      if (eq == std::string::npos) usage_error("--set needs PATH=VALUE");
      scenario::apply_setting(cfg, setting.substr(0, eq), setting.substr(eq + 1));
    }
    if (sweep_mode) {
      for (const std::string& c : split_fields(sweep_controllers)) {
        scenario::ScenarioConfig probe;
        scenario::apply_setting(probe, "controller.type", c);
        axes.controllers.push_back(probe.controller.type);
      }
      for (const std::string& p : split_fields(sweep_patterns)) {
        scenario::ScenarioConfig probe;
        scenario::apply_setting(probe, "demand.pattern", p);
        axes.patterns.push_back(probe.demand.pattern);
      }
      for (const std::string& p : split_fields(sweep_periods)) {
        axes.periods_s.push_back(parse_double(p, "--sweep-periods"));
      }
      // Every grid point must be a valid scenario: refuse a bad one here,
      // before calibration spends its evaluations.
      for (const surrogate::SweepPoint& point : surrogate::axis_points(axes)) {
        scenario::ScenarioConfig probe = cfg;
        surrogate::apply_sweep_point(probe, point);
        scenario::validate(probe);
      }
    }
  } catch (const scenario::ScenarioIoError& e) {
    std::fprintf(stderr, "abp_cli: %s\n", e.what());
    return 2;
  }

  if (incident_at) {
    if (!(*incident_at >= 0.0 && *incident_at < cfg.duration_s)) {
      usage_error("--incident T must be in [0, duration_s)");
    }
    // Canned mixed incident starting at T, sized so every piece fires on any
    // grid: a lane closure to 30% capacity on the top-right junction's north
    // approach with restoration, dead detectors at the top-left junction, and
    // a controller outage with recovery at the center junction.
    const double t0 = *incident_at;
    cfg.faults.capacity.push_back(
        {{0, cfg.grid.cols - 1, net::Side::North}, t0, t0 + 300.0, 0.3});
    cfg.faults.sensors.push_back(
        {{0, 0}, t0, t0 + 120.0, core::SensorFaultKind::Dropout, 0, 0});
    cfg.faults.controllers.push_back(
        {{cfg.grid.rows / 2, cfg.grid.cols / 2}, t0, t0 + 180.0});
  }

  if (dump_scenario_flag) {
    try {
      std::fputs(scenario::dump_scenario(cfg).c_str(), stdout);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "abp_cli: error: %s\n", e.what());
      return 1;
    }
  }

  try {
    if (calibrate_mode || sweep_mode) {
      surrogate::CalibrationProfile profile;
      if (!profile_file.empty()) {
        profile = surrogate::load_profile_file(profile_file);
      } else {
        surrogate::CalibrationOptions copt;
        copt.jobs = jobs;
        copt.allow_oversubscribe = allow_oversubscribe;
        if (replications > 1) copt.replications = replications;
        profile = surrogate::calibrate(cfg, copt);
        std::fprintf(stderr,
                     "abp_cli: calibrated profile=%s service_scale=%.4f "
                     "transit_scale=%.4f capacity_scale=%.4f objective=%.6f "
                     "evaluations=%d\n",
                     profile.name.c_str(), profile.service_scale,
                     profile.transit_scale, profile.capacity_scale,
                     profile.objective, profile.evaluations);
      }
      if (calibrate_mode && !sweep_mode) {
        std::fputs(surrogate::dump_profile(profile).c_str(), stdout);
        return 0;
      }

      sweep_options.jobs = jobs;
      sweep_options.allow_oversubscribe = allow_oversubscribe;

      const surrogate::SweepReport report =
          surrogate::surrogate_sweep(cfg, profile, axes, sweep_options);
      std::printf("sweep points=%zu spot_checks=%d flagged=%d jobs=%d profile=%s\n",
                  report.rows.size(), report.spot_checks, report.flagged, jobs,
                  report.profile.name.c_str());
      for (const surrogate::MetricErrorBar& bar : report.error_bars) {
        std::printf(
            "error_bar metric=%s samples=%d mean_rel_err=%.4f ci95_halfwidth=%.4f "
            "max_rel_err=%.4f\n",
            bar.metric.c_str(), bar.samples, bar.mean_relative_error,
            bar.ci95_halfwidth, bar.max_relative_error);
      }
      // The frontier the sweep exists to find: best-ranked configs first.
      std::vector<const surrogate::SweepRow*> by_rank(report.rows.size());
      for (const surrogate::SweepRow& row : report.rows) {
        by_rank[static_cast<std::size_t>(row.rank)] = &row;
      }
      const std::size_t shown = by_rank.size() < 10 ? by_rank.size() : 10;
      for (std::size_t r = 0; r < shown; ++r) {
        const surrogate::SweepRow& row = *by_rank[r];
        std::printf(
            "rank=%zu controller=%s pattern=%s period_s=%.0f avg_queuing_s=%.2f%s\n", r,
            core::controller_type_name(row.point.controller).c_str(),
            traffic::pattern_name(row.point.pattern).c_str(), row.point.period_s,
            row.surrogate[0],
            row.spot_checked ? (row.spot.trusted ? " spot=ok" : " spot=FLAGGED") : "");
      }
      if (!report_file.empty()) {
        std::ofstream out(report_file, std::ios::binary);
        if (!out) {
          std::fprintf(stderr, "abp_cli: cannot write %s\n", report_file.c_str());
          return 1;
        }
        out << surrogate::dump_report(report);
        std::printf("report written: %s\n", report_file.c_str());
      }
      return report.flagged > 0 ? 4 : 0;
    }

    if (replications > 1) {
      // Batch mode: per-seed replication fleet through the experiment runner,
      // with per-run statuses — a failing seed never takes its siblings'
      // results down with it.
      exp::ExperimentRunner runner({.jobs = jobs, .allow_oversubscribe = allow_oversubscribe});
      const std::vector<exp::RunStatus> statuses =
          runner.run_statuses(exp::replication_configs(cfg, replications));
      std::printf(
          "pattern=%s controller=%s simulator=%s grid=%dx%d duration=%.0fs "
          "replications=%d jobs=%d\n",
          traffic::pattern_name(cfg.demand.pattern).c_str(),
          core::controller_type_name(cfg.controller.type).c_str(),
          cfg.simulator == scenario::SimulatorKind::Micro ? "micro" : "queue",
          cfg.grid.rows, cfg.grid.cols, cfg.duration_s, replications, jobs);

      Accumulator acc;
      std::size_t guard_violations = 0;
      std::size_t detections_total = 0;
      for (std::size_t i = 0; i < statuses.size(); ++i) {
        const exp::RunStatus& s = statuses[i];
        const unsigned long long run_seed = static_cast<unsigned long long>(cfg.seed + i);
        if (s.ok()) {
          std::printf("seed=%llu avg_queuing_s=%.2f\n", run_seed,
                      s.result.metrics.average_queuing_time_s());
          acc.add(s.result.metrics.average_queuing_time_s());
          guard_violations += s.result.guard.violations.size();
          detections_total += s.result.detections.events.size();
        } else {
          std::printf("seed=%llu status=error error=%s\n", run_seed, s.error.c_str());
        }
      }
      const int ok_count = static_cast<int>(acc.count());
      if (ok_count > 0) {
        std::printf(
            "ok=%d/%d mean_s=%.2f stddev_s=%.2f ci95_halfwidth_s=%.2f (Student-t, "
            "df=%d)\n",
            ok_count, replications, acc.mean(), acc.stddev(), stats::ci95_halfwidth(acc),
            ok_count - 1);
      } else {
        std::printf("ok=0/%d (no completed runs to summarize)\n", replications);
      }
      if (cfg.guard.enabled) {
        std::printf("guard_violations=%zu\n", guard_violations);
      }
      if (cfg.detector.enabled) {
        std::printf("detections_total=%zu\n", detections_total);
      }
      if (!csv_prefix.empty()) {
        const std::string path = csv_prefix + "_replications.csv";
        std::ofstream out(path);
        CsvWriter w(out);
        w.row({"seed", "status", "avg_queuing_s"});
        for (std::size_t i = 0; i < statuses.size(); ++i) {
          const exp::RunStatus& s = statuses[i];
          w.typed_row(static_cast<unsigned long long>(cfg.seed + i), s.ok() ? "ok" : "error",
                      s.ok() ? s.result.metrics.average_queuing_time_s() : 0.0);
        }
        if (!close_csv(out, path)) return 1;
        std::printf("csv written: %s\n", path.c_str());
      }
      if (ok_count < replications) return 1;
      if (cfg.guard.enabled && guard_violations > 0) return 3;
      return 0;
    }

    // Watch the north approach of the top-right junction (Fig. 5's setup uses
    // the east approach; north is present in every grid size) unless the
    // scenario file already declares watches. Single-run mode only: the
    // replication summary never reads the series, so batch runs skip the
    // per-tick sampling and storage.
    if (cfg.watches.empty()) {
      cfg.watches.push_back({.row = 0,
                             .col = cfg.grid.cols - 1,
                             .side = net::Side::North,
                             .name = "watch"});
    }

    const stats::RunResult r = scenario::run_scenario(cfg);

    std::printf(
        "pattern=%s controller=%s simulator=%s grid=%dx%d duration=%.0fs seed=%llu\n",
        traffic::pattern_name(cfg.demand.pattern).c_str(),
        core::controller_type_name(cfg.controller.type).c_str(),
        cfg.simulator == scenario::SimulatorKind::Micro ? "micro" : "queue",
        cfg.grid.rows, cfg.grid.cols, r.duration_s,
        static_cast<unsigned long long>(cfg.seed));
    std::printf("generated=%zu entered=%zu completed=%zu in_network_at_end=%zu\n",
                r.metrics.generated, r.metrics.entered, r.metrics.completed,
                r.metrics.in_network_at_end);
    std::printf(
        "avg_queuing_s=%.2f avg_travel_s=%.2f p50_queuing_s=%.2f p95_queuing_s=%.2f\n",
        r.metrics.average_queuing_time_s(), r.metrics.average_travel_time_s(),
        r.metrics.queuing_time_s.quantile(0.5), r.metrics.queuing_time_s.quantile(0.95));
    if (cfg.guard.enabled) {
      std::printf("guard_checks=%zu guard_violations=%zu\n", r.guard.checks,
                  r.guard.violations.size());
      for (std::size_t i = 0; i < r.guard.violations.size() && i < 3; ++i) {
        std::printf("guard: %s\n", r.guard.violations[i].message.c_str());
      }
    }
    if (cfg.detector.enabled) {
      std::printf("detections=%zu detector_samples=%zu\n", r.detections.events.size(),
                  r.detections.samples);
      for (std::size_t i = 0; i < r.detections.events.size() && i < 8; ++i) {
        const stats::DetectionEvent& e = r.detections.events[i];
        std::string links;
        for (std::size_t j = 0; j < e.links.size(); ++j) {
          if (j > 0) links += ",";
          links += std::to_string(e.links[j]);
        }
        std::printf("detect: t=%.0fs junction=(%d,%d) shift=%s stat=%.1f links=%s\n",
                    e.time_s, e.row, e.col, e.direction > 0 ? "up" : "down",
                    e.statistic, links.c_str());
      }
    }

    if (!csv_prefix.empty()) {
      {
        const std::string path = csv_prefix + "_queue.csv";
        std::ofstream out(path);
        CsvWriter w(out);
        w.row({"time_s", "queued_vehicles"});
        const auto& series = r.road_series.front();
        for (std::size_t i = 0; i < series.size(); ++i) {
          w.typed_row(series.times()[i], series.values()[i]);
        }
        if (!close_csv(out, path)) return 1;
      }
      {
        const std::string path = csv_prefix + "_phases.csv";
        std::ofstream out(path);
        CsvWriter w(out);
        w.row({"time_s", "phase"});
        for (const auto& s :
             r.phase_traces[static_cast<std::size_t>(cfg.grid.cols - 1)].samples()) {
          w.typed_row(s.time, s.phase);
        }
        if (!close_csv(out, path)) return 1;
      }
      std::printf("csv written: %s_queue.csv, %s_phases.csv\n", csv_prefix.c_str(),
                  csv_prefix.c_str());
    }
    if (cfg.guard.enabled && !r.guard.violations.empty()) return 3;
    return 0;
  } catch (const exp::BatchError& e) {
    // A batch the runner refuses before running anything: a usage error.
    std::fprintf(stderr, "abp_cli: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abp_cli: error: %s\n", e.what());
    return 1;
  }
}
