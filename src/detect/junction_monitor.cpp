#include "src/detect/junction_monitor.hpp"

#include <algorithm>

namespace abp::detect {

JunctionMonitor::JunctionMonitor(const DetectorConfig& config, int num_links, int row,
                                 int col)
    : config_(config), row_(row), col_(col) {
  CusumConfig stream;
  stream.warmup_samples = config.warmup_samples;
  stream.drift = config.drift;
  stream.threshold = config.threshold;
  stream.min_sigma = config.min_sigma;
  detectors_.assign(static_cast<std::size_t>(num_links), CusumDetector(stream));
  window_sum_.assign(static_cast<std::size_t>(num_links), 0.0);
}

const stats::DetectionEvent* JunctionMonitor::update(
    const core::IntersectionObservation& obs) {
  ++samples_;
  const double now = obs.time;

  // Age out pending alarms that fell off the fusion window.
  if (!pending_.empty()) {
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [&](const PendingAlarm& a) {
                                    return now - a.time_s > config_.fuse_window_s;
                                  }),
                   pending_.end());
  }

  // Accumulate this decision's queue readings into the aggregation window.
  // Raw per-decision readings rise and fall with the signal cycle — feeding
  // them straight to a CUSUM floods it with autocorrelated excursions — so
  // the detectors see per-link *means over window_samples decisions*, which
  // average the cycle out. Readings arrive in the intersection's canonical
  // link order, so the alarm sequence — and with it the fused event stream —
  // is deterministic.
  const std::size_t n =
      obs.links.size() < detectors_.size() ? obs.links.size() : detectors_.size();
  for (std::size_t i = 0; i < n; ++i) {
    window_sum_[i] += static_cast<double>(obs.links[i].queue);
  }
  if (++window_count_ < config_.window_samples) {
    return cooldown_and_fuse(now);
  }
  const double inv = 1.0 / static_cast<double>(window_count_);
  window_count_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double mean = window_sum_[i] * inv;
    window_sum_[i] = 0.0;
    const int direction = detectors_[i].update(mean);
    if (direction == 0) continue;
    const int link = static_cast<int>(i);
    // One pending slot per link: a re-alarm refreshes it (latest wins).
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [link](const PendingAlarm& a) { return a.link == link; });
    if (it == pending_.end()) {
      pending_.push_back({link, direction, now, detectors_[i].statistic()});
    } else {
      *it = {link, direction, now, detectors_[i].statistic()};
    }
  }
  return cooldown_and_fuse(now);
}

const stats::DetectionEvent* JunctionMonitor::cooldown_and_fuse(double now) {

  if (now < cooldown_until_) return nullptr;
  if (pending_.size() < static_cast<std::size_t>(config_.min_links)) return nullptr;

  // Fuse: the pending set becomes the event's implicated link set. Direction
  // is the sign of the strongest stream; the statistic is its value.
  stats::DetectionEvent event;
  event.time_s = now;
  event.row = row_;
  event.col = col_;
  const PendingAlarm* strongest = &pending_.front();
  for (const PendingAlarm& a : pending_) {
    if (a.statistic > strongest->statistic) strongest = &a;
    event.links.push_back(a.link);
  }
  std::sort(event.links.begin(), event.links.end());
  event.direction = strongest->direction;
  event.statistic = strongest->statistic;
  pending_.clear();
  cooldown_until_ = now + config_.cooldown_s;
  events_.push_back(std::move(event));
  return &events_.back();
}

void JunctionMonitor::reset() {
  for (CusumDetector& d : detectors_) d.reset();
  std::fill(window_sum_.begin(), window_sum_.end(), 0.0);
  window_count_ = 0;
  pending_.clear();
  events_.clear();
  cooldown_until_ = 0.0;
  samples_ = 0;
}

}  // namespace abp::detect
