// Per-junction multi-stream changepoint monitor: link-level CUSUM alarms
// fused into junction-level regime-shift events with the implicated links.
//
// Every movement (link) of a junction carries its own CusumDetector over the
// sensor-derived queue reading the controller sees for it. Link alarms are
// individually noisy — one movement's queue can drift for reasons that are
// not a regime change — so the monitor fuses them the way the multi-stream
// root-cause-analysis literature does (Hore & Ramdas, arXiv:2605.21627):
// alarms stay pending for a fusion window, and only when at least
// `min_links` distinct links have alarmed inside that window does the
// junction raise a DetectionEvent naming exactly those links as the
// implicated set (the root-cause shape: which approaches shifted, not just
// that something did). A cooldown then suppresses re-detections of the same
// episode while the per-link detectors re-baseline onto the new regime.
//
// update() is called once per control decision from the sequential phase of
// the tick (see core::AdaptiveController), so the event stream is a pure
// function of the observation stream — bit-identical at every batch jobs
// count, like everything else in this repository.
#pragma once

#include <vector>

#include "src/core/observation.hpp"
#include "src/detect/cusum.hpp"
#include "src/detect/detector_config.hpp"
#include "src/stats/run_result.hpp"

namespace abp::detect {

class JunctionMonitor {
 public:
  // `row`/`col` are the junction's grid coordinates, stamped into events.
  JunctionMonitor(const DetectorConfig& config, int num_links, int row, int col);

  // Feeds one observation (one control decision's worth of link readings).
  // Returns a pointer to the newly raised junction event, or nullptr. The
  // pointer stays valid until the next update()/reset() (it points into
  // events()).
  const stats::DetectionEvent* update(const core::IntersectionObservation& obs);

  // All junction events so far, in time order.
  [[nodiscard]] const std::vector<stats::DetectionEvent>& events() const noexcept {
    return events_;
  }

  // Observations consumed so far (detector-health metric for reports).
  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }

  [[nodiscard]] const DetectorConfig& config() const noexcept { return config_; }

  // Restores the initial state for a fresh run.
  void reset();

 private:
  // Cooldown check + multi-link fusion over the pending set; returns the new
  // junction event (pointer into events()) or nullptr.
  const stats::DetectionEvent* cooldown_and_fuse(double now);
  // One link alarm pending fusion.
  struct PendingAlarm {
    int link = 0;
    int direction = 0;
    double time_s = 0.0;
    double statistic = 0.0;
  };

  DetectorConfig config_;
  int row_ = 0;
  int col_ = 0;
  std::vector<CusumDetector> detectors_;  // one per link, canonical order
  // Per-link queue sums over the current aggregation window; the detectors
  // are fed the window means every window_samples observations.
  std::vector<double> window_sum_;
  int window_count_ = 0;
  std::vector<PendingAlarm> pending_;
  std::vector<stats::DetectionEvent> events_;
  double cooldown_until_ = 0.0;
  std::size_t samples_ = 0;
};

}  // namespace abp::detect
