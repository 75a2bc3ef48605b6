// Surrogate sweep driver: wide config grids on the calibrated queue backend,
// micro-sim spot-checks at the frontier, per-metric error bars.
//
// A paper-grade sweep evaluates hundreds of (controller, pattern, period)
// points, each with R replications on the micro backend — the cost that
// caps experiment throughput. The surrogate protocol replaces it with:
//
//   1. one calibrated queue run per grid point (the queue backend is
//      deterministic per seed; the surrogate's error is *bias* against the
//      micro sim, not replication noise, so replicating it buys nothing);
//   2. micro spot-checks where they matter: the best-k points by surrogate
//      ranking (the frontier a sweep exists to find) plus a deterministic
//      stratified sample across the rest of the ranking (so the error bars
//      cover the whole quality range, not just the frontier);
//   3. per-metric relative-error bars over the spot-checked points
//      (Student-t, like every CI in this repo), and a trust flag on any
//      point whose surrogate error exceeds the threshold.
//
// Determinism: the grid enumerates in a fixed order, surrogate runs are
// ExperimentRunner batches (bit-identical at every jobs count), the ranking
// tie-breaks on enumeration index, and the stratified sample draws from
// counter-based StreamRng streams keyed on (seed, stratum) — so the whole
// report, spot-check selection included, is a pure function of
// (base config, profile, axes, options). Pinned by surrogate_pipeline_test.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/factory.hpp"
#include "src/scenario/scenario_config.hpp"
#include "src/surrogate/calibration_profile.hpp"
#include "src/surrogate/metric_vector.hpp"
#include "src/traffic/patterns.hpp"

namespace abp::surrogate {

// Seed salt of the stratified spot-check sample's RNG streams: disjoint from
// the demand (config.seed), micro (kMicroSeedSalt) and fault (kFaultSeedSalt)
// stream families.
inline constexpr std::uint64_t kSpotSeedSalt = 0x5707ULL;

// The sweep's axes. `periods_s` drives the slotted BP controllers'
// fixed_slot.period_s and the classical controller's green duration;
// UTIL-BP has no period knob, so it is crossed with the first period only
// (identical runs would otherwise pad the grid).
struct SweepAxes {
  std::vector<core::ControllerType> controllers;
  std::vector<traffic::PatternKind> patterns;
  std::vector<double> periods_s;
};

// One grid point's identity.
struct SweepPoint {
  core::ControllerType controller = core::ControllerType::UtilBp;
  traffic::PatternKind pattern = traffic::PatternKind::I;
  double period_s = 0.0;
};

// The fixed enumeration order of a grid (controller-major, then pattern,
// then period). Exposed so benches/tests can size a sweep before running it.
[[nodiscard]] std::vector<SweepPoint> axis_points(const SweepAxes& axes);

// Writes one grid point into a config: controller type, demand pattern, and
// the period into whichever knob the controller consumes (fixed_slot period
// for the slotted BP policies, green duration for FIXED-TIME; UTIL-BP has no
// period knob). Exposed so the micro-only baseline arm of
// bench_surrogate_sweep evaluates exactly the sweep's configs.
void apply_sweep_point(scenario::ScenarioConfig& config, const SweepPoint& point);

struct SweepOptions {
  // Run-level parallelism for the surrogate batch and the spot-check batch.
  int jobs = 1;
  bool allow_oversubscribe = false;
  // Spot-check policy: the `best_k` top-ranked points, plus one point from
  // each of ceil(sample_fraction * n) equal strata of the remaining ranking.
  // sample_fraction must be in [0, 1].
  int best_k = 4;
  double sample_fraction = 0.05;
  // Micro replications per spot check (Student-t CIs need >= 2).
  int spot_replications = 3;
  // A point is flagged untrusted when any metric's relative surrogate error
  // exceeds this.
  double trust_threshold = 0.2;
};

// The deterministic spot-check selection: `ranking` is the point indices
// sorted best-first; returns the chosen indices in ascending index order.
// Pure function of (ranking, options, seed) — exposed for the determinism
// tests and reused verbatim by surrogate_sweep().
[[nodiscard]] std::vector<std::size_t> spot_check_selection(
    const std::vector<std::size_t>& ranking, const SweepOptions& options,
    std::uint64_t seed);

// One spot-checked point's micro-vs-surrogate comparison.
struct SpotCheck {
  MetricVector micro_mean{};
  // 95% Student-t half-width of the micro mean (spot_replications - 1 df).
  MetricVector micro_ci95_halfwidth{};
  MetricVector relative_error{};
  bool trusted = true;
};

struct SweepRow {
  SweepPoint point;
  // Calibrated queue-backend metrics for this point.
  MetricVector surrogate{};
  // Position in the surrogate ranking (0 = best avg queuing time).
  int rank = 0;
  bool spot_checked = false;
  SpotCheck spot;
};

// Per-metric surrogate error bar over the spot-checked points.
struct MetricErrorBar {
  std::string metric;
  int samples = 0;
  double mean_relative_error = 0.0;
  // 95% Student-t half-width of the mean relative error.
  double ci95_halfwidth = 0.0;
  double max_relative_error = 0.0;
};

struct SweepReport {
  std::vector<SweepRow> rows;  // axis_points() order
  std::array<MetricErrorBar, kMetricCount> error_bars;
  int spot_checks = 0;
  // Points whose surrogate error exceeded the trust threshold.
  int flagged = 0;
  CalibrationProfile profile;
};

// Runs the sweep: every grid point on the calibrated queue backend, spot
// checks on the micro backend, error bars over the comparisons. `base`
// provides everything the axes don't (grid, seed, duration, demand scale...).
[[nodiscard]] SweepReport surrogate_sweep(const scenario::ScenarioConfig& base,
                                          const CalibrationProfile& profile,
                                          const SweepAxes& axes,
                                          const SweepOptions& options = {});

// Canonical JSON form of a report (byte-stable; determinism tests compare
// these strings across jobs counts).
[[nodiscard]] std::string dump_report(const SweepReport& report);

}  // namespace abp::surrogate
