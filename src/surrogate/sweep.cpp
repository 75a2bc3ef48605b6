#include "src/surrogate/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "src/exp/experiment_runner.hpp"
#include "src/stats/student_t.hpp"
#include "src/util/accumulator.hpp"
#include "src/util/json.hpp"
#include "src/util/rng.hpp"

namespace abp::surrogate {
namespace {

// Does the controller consume the period axis? UTIL-BP decides per control
// interval from the live utilization signal; it has no cycle/slot knob.
bool uses_period(core::ControllerType type) {
  return type != core::ControllerType::UtilBp;
}

}  // namespace

void apply_sweep_point(scenario::ScenarioConfig& config, const SweepPoint& point) {
  config.controller.type = point.controller;
  config.demand.pattern = point.pattern;
  switch (point.controller) {
    case core::ControllerType::CapBp:
    case core::ControllerType::OriginalBp:
      config.controller.fixed_slot.period_s = point.period_s;
      break;
    case core::ControllerType::FixedTime:
      config.controller.fixed_time.green_duration_s = point.period_s;
      break;
    case core::ControllerType::UtilBp:
      break;
  }
}

std::vector<SweepPoint> axis_points(const SweepAxes& axes) {
  std::vector<SweepPoint> points;
  for (const core::ControllerType controller : axes.controllers) {
    const std::size_t period_count =
        uses_period(controller) ? axes.periods_s.size() : std::min<std::size_t>(
                                                              1, axes.periods_s.size());
    for (const traffic::PatternKind pattern : axes.patterns) {
      for (std::size_t p = 0; p < period_count; ++p) {
        points.push_back({controller, pattern, axes.periods_s[p]});
      }
    }
  }
  return points;
}

std::vector<std::size_t> spot_check_selection(const std::vector<std::size_t>& ranking,
                                              const SweepOptions& options,
                                              std::uint64_t seed) {
  const std::size_t n = ranking.size();
  std::vector<std::size_t> chosen;
  const std::size_t k = std::min<std::size_t>(std::max(options.best_k, 0), n);
  chosen.assign(ranking.begin(), ranking.begin() + static_cast<std::ptrdiff_t>(k));

  const std::size_t rest = n - k;
  if (rest > 0 && options.sample_fraction > 0.0) {
    const std::size_t strata = std::min<std::size_t>(
        rest, static_cast<std::size_t>(
                  std::ceil(options.sample_fraction * static_cast<double>(n))));
    for (std::size_t s = 0; s < strata; ++s) {
      // Equal contiguous strata over the ranked tail; one draw per stratum
      // from its own counter-based stream, so the selection is a pure
      // function of (seed, stratum) — independent of jobs and evaluation
      // order.
      const std::size_t lo = k + s * rest / strata;
      const std::size_t hi = k + (s + 1) * rest / strata;
      if (hi <= lo) continue;
      StreamRng rng(seed + kSpotSeedSalt, static_cast<std::uint64_t>(s));
      chosen.push_back(ranking[lo + rng.bounded(static_cast<std::uint64_t>(hi - lo))]);
    }
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

SweepReport surrogate_sweep(const scenario::ScenarioConfig& base,
                            const CalibrationProfile& profile, const SweepAxes& axes,
                            const SweepOptions& options) {
  if (options.spot_replications < 1) {
    throw std::invalid_argument("spot_replications must be >= 1");
  }
  if (!(options.sample_fraction >= 0.0 && options.sample_fraction <= 1.0)) {
    throw std::invalid_argument("sample_fraction must be in [0, 1]");
  }
  if (!(options.trust_threshold > 0.0)) {
    throw std::invalid_argument("trust_threshold must be > 0");
  }
  const std::vector<SweepPoint> points = axis_points(axes);
  if (points.empty()) throw std::invalid_argument("sweep axes enumerate no configs");

  exp::BatchOptions batch;
  batch.jobs = options.jobs;
  batch.allow_oversubscribe = options.allow_oversubscribe;
  exp::ExperimentRunner runner(batch);

  // Stage 1: every grid point once on the calibrated queue backend.
  std::vector<scenario::ScenarioConfig> surrogate_configs;
  surrogate_configs.reserve(points.size());
  for (const SweepPoint& point : points) {
    scenario::ScenarioConfig cfg = base;
    cfg.simulator = scenario::SimulatorKind::Queue;
    apply_profile(profile, cfg);
    apply_sweep_point(cfg, point);
    surrogate_configs.push_back(std::move(cfg));
  }
  const std::vector<stats::RunResult> surrogate_results =
      runner.run(surrogate_configs);

  SweepReport report;
  report.profile = profile;
  report.rows.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    report.rows[i].point = points[i];
    report.rows[i].surrogate = extract_metrics(surrogate_results[i]);
  }

  // Stage 2: ranking (headline metric ascending, enumeration index breaking
  // ties) and the deterministic spot-check selection over it.
  std::vector<std::size_t> ranking(points.size());
  std::iota(ranking.begin(), ranking.end(), std::size_t{0});
  std::sort(ranking.begin(), ranking.end(), [&](std::size_t a, std::size_t b) {
    const double qa = report.rows[a].surrogate[0];
    const double qb = report.rows[b].surrogate[0];
    if (qa != qb) return qa < qb;
    return a < b;
  });
  for (std::size_t r = 0; r < ranking.size(); ++r) {
    report.rows[ranking[r]].rank = static_cast<int>(r);
  }
  const std::vector<std::size_t> spots =
      spot_check_selection(ranking, options, base.seed);

  // Stage 3: micro replications of every spot-checked point, as one batch so
  // the spot checks share the jobs-level parallelism.
  const int reps = options.spot_replications;
  std::vector<scenario::ScenarioConfig> spot_configs;
  spot_configs.reserve(spots.size() * static_cast<std::size_t>(reps));
  for (const std::size_t i : spots) {
    scenario::ScenarioConfig cfg = base;
    cfg.simulator = scenario::SimulatorKind::Micro;
    cfg.surrogate = scenario::SurrogateConfig{};
    apply_sweep_point(cfg, points[i]);
    const std::vector<scenario::ScenarioConfig> reps_cfg =
        exp::replication_configs(cfg, reps);
    spot_configs.insert(spot_configs.end(), reps_cfg.begin(), reps_cfg.end());
  }
  const std::vector<stats::RunResult> spot_results = runner.run(spot_configs);

  std::array<Accumulator, kMetricCount> error_acc;
  std::array<double, kMetricCount> error_max{};
  for (std::size_t s = 0; s < spots.size(); ++s) {
    SweepRow& row = report.rows[spots[s]];
    row.spot_checked = true;
    std::array<Accumulator, kMetricCount> acc;
    for (int r = 0; r < reps; ++r) {
      const MetricVector m =
          extract_metrics(spot_results[s * static_cast<std::size_t>(reps) +
                                       static_cast<std::size_t>(r)]);
      for (std::size_t i = 0; i < kMetricCount; ++i) acc[i].add(m[i]);
    }
    for (std::size_t i = 0; i < kMetricCount; ++i) {
      row.spot.micro_mean[i] = acc[i].mean();
      row.spot.micro_ci95_halfwidth[i] = stats::ci95_halfwidth(acc[i]);
      const double denom = std::max(std::abs(acc[i].mean()), kRelativeErrorFloor);
      row.spot.relative_error[i] = std::abs(row.surrogate[i] - acc[i].mean()) / denom;
      if (row.spot.relative_error[i] > options.trust_threshold) row.spot.trusted = false;
      error_acc[i].add(row.spot.relative_error[i]);
      error_max[i] = std::max(error_max[i], row.spot.relative_error[i]);
    }
    if (!row.spot.trusted) ++report.flagged;
  }
  report.spot_checks = static_cast<int>(spots.size());

  for (std::size_t i = 0; i < kMetricCount; ++i) {
    report.error_bars[i].metric = kMetricNames[i];
    report.error_bars[i].samples = report.spot_checks;
    report.error_bars[i].mean_relative_error = error_acc[i].mean();
    report.error_bars[i].ci95_halfwidth = stats::ci95_halfwidth(error_acc[i]);
    report.error_bars[i].max_relative_error = error_max[i];
  }
  return report;
}

std::string dump_report(const SweepReport& report) {
  json::Value doc = json::Value::object();
  json::Value profile = json::Value::object();
  profile.set("name", json::Value::string(report.profile.name));
  profile.set("service_scale", json::Value::number(report.profile.service_scale));
  profile.set("transit_scale", json::Value::number(report.profile.transit_scale));
  profile.set("capacity_scale", json::Value::number(report.profile.capacity_scale));
  doc.set("profile", std::move(profile));
  doc.set("points", json::Value::number(static_cast<int>(report.rows.size())));
  doc.set("spot_checks", json::Value::number(report.spot_checks));
  doc.set("flagged", json::Value::number(report.flagged));

  json::Value bars = json::Value::array();
  for (const MetricErrorBar& bar : report.error_bars) {
    json::Value b = json::Value::object();
    b.set("metric", json::Value::string(bar.metric));
    b.set("samples", json::Value::number(bar.samples));
    b.set("mean_relative_error", json::Value::number(bar.mean_relative_error));
    b.set("ci95_halfwidth", json::Value::number(bar.ci95_halfwidth));
    b.set("max_relative_error", json::Value::number(bar.max_relative_error));
    bars.push_back(std::move(b));
  }
  doc.set("error_bars", std::move(bars));

  json::Value rows = json::Value::array();
  for (const SweepRow& row : report.rows) {
    json::Value r = json::Value::object();
    r.set("controller",
          json::Value::string(core::controller_type_name(row.point.controller)));
    r.set("pattern", json::Value::string(traffic::pattern_name(row.point.pattern)));
    r.set("period_s", json::Value::number(row.point.period_s));
    r.set("rank", json::Value::number(row.rank));
    json::Value surrogate = json::Value::object();
    for (std::size_t i = 0; i < kMetricCount; ++i) {
      surrogate.set(kMetricNames[i], json::Value::number(row.surrogate[i]));
    }
    r.set("surrogate", std::move(surrogate));
    r.set("spot_checked", json::Value::boolean(row.spot_checked));
    if (row.spot_checked) {
      json::Value spot = json::Value::object();
      for (std::size_t i = 0; i < kMetricCount; ++i) {
        json::Value m = json::Value::object();
        m.set("micro_mean", json::Value::number(row.spot.micro_mean[i]));
        m.set("ci95_halfwidth",
              json::Value::number(row.spot.micro_ci95_halfwidth[i]));
        m.set("relative_error", json::Value::number(row.spot.relative_error[i]));
        spot.set(kMetricNames[i], std::move(m));
      }
      spot.set("trusted", json::Value::boolean(row.spot.trusted));
      r.set("spot", std::move(spot));
    }
    rows.push_back(std::move(r));
  }
  doc.set("rows", std::move(rows));
  return json::dump(doc);
}

}  // namespace abp::surrogate
