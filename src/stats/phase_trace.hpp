// Applied-phase traces (paper Fig. 3 / Fig. 4) and derived statistics.
//
// A PhaseTrace records the phase displayed by one junction over time,
// compressed to change points. From it we derive the number of transitions,
// the amber-time fraction and the distribution of control-phase durations —
// the quantities behind the paper's utilization argument (each change costs
// one amber period).
#pragma once

#include <algorithm>
#include <vector>

#include "src/net/phase.hpp"

namespace abp::stats {

class PhaseTrace {
 public:
  struct Sample {
    double time = 0.0;
    net::PhaseIndex phase = net::kTransitionPhase;
  };

  // Records the displayed phase at `time`; consecutive identical phases are
  // compressed. Times must be non-decreasing. The repeat of the last phase,
  // what a junction records at most control steps, is handled inline.
  void record(double time, net::PhaseIndex phase) {
    if (!finished_ && !samples_.empty() && samples_.back().phase == phase &&
        time >= samples_.back().time) {
      end_time_ = std::max(end_time_, time);
      return;
    }
    record_change(time, phase);
  }
  // Closes the trace at `end_time` so the last segment has a duration.
  void finish(double end_time);

  [[nodiscard]] const std::vector<Sample>& samples() const noexcept { return samples_; }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] double end_time() const noexcept { return end_time_; }

  // Number of transitions into the amber phase.
  [[nodiscard]] int transition_count() const;
  // Total time displaying a given phase.
  [[nodiscard]] double time_in_phase(net::PhaseIndex phase) const;
  // Fraction of the trace spent in the transition phase.
  [[nodiscard]] double amber_fraction() const;
  // Durations of every maximal interval spent in a control phase (>0).
  [[nodiscard]] std::vector<double> control_phase_durations() const;

 private:
  // record() for everything but a valid repeat: the checks, and a new
  // sample when the phase changed.
  void record_change(double time, net::PhaseIndex phase);

  std::vector<Sample> samples_;
  double end_time_ = 0.0;
  bool finished_ = false;
};

}  // namespace abp::stats
