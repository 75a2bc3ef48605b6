// Streaming two-sided CUSUM changepoint detector for one sensor stream.
//
// The sensor-derived queue readings the controllers consume (observe() in
// both backends) are exactly the per-stream shape of the retrieved
// changepoint literature: CUSUM-based detection of mean shifts
// (Horvath & Trapani, arXiv:2104.13440) over many parallel streams with a
// multi-stream fusion step for root cause (Hore & Ramdas,
// arXiv:2605.21627). This header is the single-stream half; the
// per-junction fusion lives in junction_monitor.hpp.
//
// Model: readings arrive once per control step. The detector first spends
// `warmup_samples` readings estimating the stream's baseline mean and
// standard deviation (Welford, single pass), then accumulates the classic
// two-sided CUSUM statistics on standardized residuals z = (x - mean)/sigma:
//
//   g+ <- max(0, g+ + z - drift)      upward shift (demand surge, incident
//                                     spillback growing the queue)
//   g- <- max(0, g- - z - drift)      downward shift (recovery, dead
//                                     detectors reading zero)
//
// A shift is flagged when either statistic exceeds `threshold`. After a
// detection the detector re-enters warmup, re-estimating the baseline of the
// *new* regime — that windowed re-estimation is what lets one detector flag
// the incident onset and later the restoration, instead of alarming forever
// against a stale baseline.
//
// Determinism: update() is a pure function of the reading sequence — no RNG,
// no clocks, no allocation after construction. Both backends feed it from
// the sequential control phase, so every determinism guarantee of the
// repository (fixed-seed and batch-vs-serial bit-equality) extends to
// detection verbatim (docs/CHANGEPOINT.md).
#pragma once

namespace abp::detect {

struct CusumConfig {
  // Readings used to estimate the baseline mean/sigma before monitoring
  // starts (and again after every detection).
  int warmup_samples = 120;
  // Slack k of the CUSUM recursion, in baseline-sigma units: drift smaller
  // than this is absorbed, so occasional cycle-to-cycle wobble does not
  // accumulate. Typical 0.25-1.0.
  double drift = 0.5;
  // Decision threshold h on g+/g-, in baseline-sigma units. Larger = fewer
  // false alarms, longer detection delay.
  double threshold = 12.0;
  // Floor on the estimated sigma. Queue readings are small integers and an
  // idle approach has a dead-flat warmup window; without a floor its sigma
  // would be ~0 and the first vehicle would standardize to infinity.
  double min_sigma = 1.0;
};

class CusumDetector {
 public:
  CusumDetector() = default;
  explicit CusumDetector(const CusumConfig& config) : config_(config) {}

  // Feeds one reading. Returns +1 when an upward mean shift is flagged on
  // this sample, -1 for a downward shift, 0 otherwise. On a detection the
  // statistics clear and the detector re-enters warmup on the new regime.
  int update(double x) {
    if (seen_ < config_.warmup_samples) {
      // Welford running mean/M2 over the warmup window.
      ++seen_;
      const double delta = x - mean_;
      mean_ += delta / seen_;
      m2_ += delta * (x - mean_);
      if (seen_ == config_.warmup_samples) {
        sigma_ = variance_to_sigma(m2_ / seen_);
      }
      return 0;
    }
    const double z = (x - mean_) / sigma_;
    g_pos_ = g_pos_ + z - config_.drift;
    if (g_pos_ < 0.0) g_pos_ = 0.0;
    g_neg_ = g_neg_ - z - config_.drift;
    if (g_neg_ < 0.0) g_neg_ = 0.0;
    if (g_pos_ > config_.threshold || g_neg_ > config_.threshold) {
      const int direction = g_pos_ >= g_neg_ ? +1 : -1;
      last_statistic_ = g_pos_ >= g_neg_ ? g_pos_ : g_neg_;
      rearm();
      return direction;
    }
    return 0;
  }

  // Restores the initial state (fresh warmup, statistics cleared).
  void reset() {
    seen_ = 0;
    mean_ = 0.0;
    m2_ = 0.0;
    sigma_ = config_.min_sigma;
    g_pos_ = 0.0;
    g_neg_ = 0.0;
    last_statistic_ = 0.0;
  }

  // True once the baseline estimate is in place and monitoring is active.
  [[nodiscard]] bool warmed_up() const noexcept {
    return seen_ >= config_.warmup_samples;
  }

  // Current decision statistic max(g+, g-); after a detection, the value
  // that crossed the threshold (the statistics themselves have re-armed).
  [[nodiscard]] double statistic() const noexcept {
    const double g = g_pos_ >= g_neg_ ? g_pos_ : g_neg_;
    return g > last_statistic_ ? g : last_statistic_;
  }

  // Baseline estimates of the current regime (valid once warmed_up()).
  [[nodiscard]] double baseline_mean() const noexcept { return mean_; }
  [[nodiscard]] double baseline_sigma() const noexcept { return sigma_; }

  [[nodiscard]] const CusumConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] double variance_to_sigma(double variance) const noexcept {
    // sqrt via Newton is overkill; __builtin_sqrt keeps <cmath> out of this
    // header's hot include path while staying correctly rounded (IEEE sqrt).
    const double sigma = __builtin_sqrt(variance < 0.0 ? 0.0 : variance);
    return sigma < config_.min_sigma ? config_.min_sigma : sigma;
  }

  // Clears the statistics and re-enters warmup (post-detection re-baseline).
  void rearm() {
    seen_ = 0;
    mean_ = 0.0;
    m2_ = 0.0;
    sigma_ = config_.min_sigma;
    g_pos_ = 0.0;
    g_neg_ = 0.0;
  }

  CusumConfig config_;
  int seen_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sigma_ = config_.min_sigma;
  double g_pos_ = 0.0;
  double g_neg_ = 0.0;
  double last_statistic_ = 0.0;
};

}  // namespace abp::detect
