#include "src/stats/phase_trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace abp::stats {

void PhaseTrace::record_change(double time, net::PhaseIndex phase) {
  if (finished_) throw std::logic_error("PhaseTrace::record after finish");
  if (!samples_.empty()) {
    if (time < samples_.back().time) {
      throw std::invalid_argument("PhaseTrace times must be non-decreasing");
    }
    if (samples_.back().phase == phase) {
      end_time_ = std::max(end_time_, time);
      return;  // compress runs of the same phase
    }
  }
  samples_.push_back({time, phase});
  end_time_ = std::max(end_time_, time);
}

void PhaseTrace::finish(double end_time) {
  if (!samples_.empty() && end_time < samples_.back().time) {
    throw std::invalid_argument("PhaseTrace end before last sample");
  }
  end_time_ = std::max(end_time_, end_time);
  finished_ = true;
}

int PhaseTrace::transition_count() const {
  int count = 0;
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    // The initial sample counts only if it is an amber display following a
    // phase; an initial amber at t=0 is a start-up artefact, not a change.
    if (samples_[i].phase == net::kTransitionPhase && i > 0) ++count;
  }
  return count;
}

double PhaseTrace::time_in_phase(net::PhaseIndex phase) const {
  double total = 0.0;
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const double until = (i + 1 < samples_.size()) ? samples_[i + 1].time : end_time_;
    if (samples_[i].phase == phase) total += until - samples_[i].time;
  }
  return total;
}

double PhaseTrace::amber_fraction() const {
  if (samples_.empty()) return 0.0;
  const double span = end_time_ - samples_.front().time;
  if (span <= 0.0) return 0.0;
  return time_in_phase(net::kTransitionPhase) / span;
}

std::vector<double> PhaseTrace::control_phase_durations() const {
  std::vector<double> durations;
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    if (samples_[i].phase == net::kTransitionPhase) continue;
    const double until = (i + 1 < samples_.size()) ? samples_[i + 1].time : end_time_;
    const double d = until - samples_[i].time;
    if (d > 0.0) durations.push_back(d);
  }
  return durations;
}

}  // namespace abp::stats
