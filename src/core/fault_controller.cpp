#include "src/core/fault_controller.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

namespace abp::core {

FaultInjectedController::FaultInjectedController(ControllerPtr primary,
                                                 ControllerPtr fallback,
                                                 std::vector<ControllerFaultWindow> failures,
                                                 std::vector<SensorFaultWindow> sensor_faults,
                                                 std::uint64_t noise_seed,
                                                 std::uint64_t noise_stream)
    : primary_(std::move(primary)),
      fallback_(std::move(fallback)),
      failures_(std::move(failures)),
      sensor_faults_(std::move(sensor_faults)),
      noise_seed_(noise_seed),
      noise_stream_(noise_stream),
      noise_rng_(noise_seed, noise_stream) {
  has_stuck_window_ = std::any_of(
      sensor_faults_.begin(), sensor_faults_.end(),
      [](const SensorFaultWindow& w) { return w.kind == SensorFaultKind::StuckAt; });
}

const SensorFaultWindow* FaultInjectedController::active_sensor_fault(double time) const {
  // First matching window wins; schedule validation rejects overlapping
  // windows at the same junction, so ties cannot occur in validated configs.
  for (const SensorFaultWindow& w : sensor_faults_) {
    if (time >= w.start_s && time < w.end_s) return &w;
  }
  return nullptr;
}

bool FaultInjectedController::failure_active(double time) const {
  for (const ControllerFaultWindow& w : failures_) {
    if (time >= w.fail_s && time < w.recover_s) return true;
  }
  return false;
}

int FaultInjectedController::noisy(int value, const SensorFaultWindow& fault) {
  // 64-bit arithmetic: the bias and the magnitude may each be any int the
  // schema admits, and their sum with a reading can leave int's range.
  std::int64_t offset = fault.bias;
  if (fault.noise_magnitude > 0) {
    // Unbiased draw from {-m, ..., +m}: `next() % span` would over-weight the
    // low offsets whenever span does not divide 2^64.
    const std::uint64_t span = 2ULL * static_cast<std::uint64_t>(fault.noise_magnitude) + 1;
    offset += static_cast<std::int64_t>(noise_rng_.bounded(span)) - fault.noise_magnitude;
  }
  return static_cast<int>(std::clamp<std::int64_t>(
      value + offset, 0, std::numeric_limits<int>::max()));
}

void FaultInjectedController::perturb(IntersectionObservation& obs,
                                      const SensorFaultWindow& fault) {
  switch (fault.kind) {
    case SensorFaultKind::Dropout:
      for (LinkState& s : obs.links) {
        s.queue = 0;
        s.upstream_total = 0;
        s.downstream_queue = 0;
      }
      break;
    case SensorFaultKind::StuckAt:
      if (last_healthy_.size() == obs.links.size()) {
        for (std::size_t i = 0; i < obs.links.size(); ++i) {
          obs.links[i].queue = last_healthy_[i].queue;
          obs.links[i].upstream_total = last_healthy_[i].upstream_total;
          obs.links[i].downstream_queue = last_healthy_[i].downstream_queue;
        }
      } else {
        // Stuck from the first decision on: nothing healthy to freeze, so the
        // readings stick at zero (indistinguishable from dead detectors).
        for (LinkState& s : obs.links) {
          s.queue = 0;
          s.upstream_total = 0;
          s.downstream_queue = 0;
        }
      }
      break;
    case SensorFaultKind::Noise:
      for (LinkState& s : obs.links) {
        s.queue = noisy(s.queue, fault);
        s.upstream_total = noisy(s.upstream_total, fault);
        s.downstream_queue = noisy(s.downstream_queue, fault);
      }
      break;
  }
}

net::PhaseIndex FaultInjectedController::decide(const IntersectionObservation& obs) {
  const IntersectionObservation* view = &obs;
  if (const SensorFaultWindow* fault = active_sensor_fault(obs.time)) {
    // Perturb a scratch copy: the backend reuses its observation buffer, and
    // the perturbation must not leak into healthy readings elsewhere. Time is
    // kept truthful — controllers require monotone obs.time.
    scratch_ = obs;
    perturb(scratch_, *fault);
    view = &scratch_;
  } else if (has_stuck_window_) {
    last_healthy_ = obs.links;
  }

  if (failure_active(obs.time)) {
    degraded_ = true;
    return fallback_->decide(*view);
  }
  if (degraded_) {
    // Recovery: the primary's internal clocks (cycle origins, slot
    // boundaries) are stale by the outage length; reset before resuming.
    degraded_ = false;
    primary_->reset();
  }
  return primary_->decide(*view);
}

void FaultInjectedController::reset() {
  primary_->reset();
  fallback_->reset();
  degraded_ = false;
  last_healthy_.clear();
  noise_rng_ = StreamRng(noise_seed_, noise_stream_);
}

}  // namespace abp::core
