// Changepoint-adaptive controller decorator: online regime-shift detection
// over the junction's sensor streams, with optional re-tuning on detection.
//
// Sits between the backend (or the fault decorator, which wraps it so the
// monitor sees exactly the possibly-faulted readings the policy sees) and
// the junction's control policy. Every decide() first feeds the observation
// to a detect::JunctionMonitor — per-link two-sided CUSUM detectors fused
// into junction-level regime-shift events (docs/CHANGEPOINT.md) — then
// delegates to the active controller.
//
// Adaptation (DetectorConfig::adapt) is two-mode: an upward regime shift
// (surge onset, incident spillback) switches control to a pre-built
// incident-tuned variant of the policy, freshly reset() so none of its
// hysteresis/slot state is stale from the old regime; a downward shift
// (recovery) switches back to the primary, also reset. When no tuned
// variant exists for the policy (classical fixed-time has nothing to
// re-tune), adaptation degrades to resetting the primary — dropping regime
// assumptions baked into its internal clocks. With adapt=false the monitor
// records events and control is untouched: the run is decision-for-decision
// identical to an unwrapped one.
//
// Determinism: the monitor is draw-free and runs inside the sequential
// control phase, so wrapping changes no RNG stream and every bit-invariance
// guarantee (fixed seed, batch jobs) holds with a detector active — pinned by
// tests/changepoint_test.cpp.
#pragma once

#include <string>
#include <utility>

#include "src/core/controller.hpp"
#include "src/detect/junction_monitor.hpp"

namespace abp::core {

class AdaptiveController final : public SignalController {
 public:
  // `retuned` may be null: adaptation then falls back to resetting the
  // primary on each acted-on event.
  AdaptiveController(ControllerPtr primary, ControllerPtr retuned,
                     detect::JunctionMonitor monitor)
      : primary_(std::move(primary)),
        retuned_(std::move(retuned)),
        monitor_(std::move(monitor)) {}

  [[nodiscard]] net::PhaseIndex decide(const IntersectionObservation& obs) override {
    if (const stats::DetectionEvent* event = monitor_.update(obs);
        event != nullptr && monitor_.config().adapt) {
      apply(*event);
    }
    SignalController& active = retuned_active_ ? *retuned_ : *primary_;
    return active.decide(obs);
  }

  void reset() override {
    primary_->reset();
    if (retuned_) retuned_->reset();
    retuned_active_ = false;
    monitor_.reset();
  }

  // Reports the primary's name: detection is a property of the run, not of
  // the policy under test (same convention as FaultInjectedController).
  [[nodiscard]] std::string name() const override { return primary_->name(); }

  // The junction's event stream and sample count (read by the simulator
  // adapter when assembling RunResult::detections).
  [[nodiscard]] const detect::JunctionMonitor& monitor() const noexcept {
    return monitor_;
  }

 private:
  void apply(const stats::DetectionEvent& event) {
    if (event.direction > 0 && retuned_ && !retuned_active_) {
      retuned_active_ = true;
      retuned_->reset();
    } else if (event.direction < 0 && retuned_active_) {
      retuned_active_ = false;
      primary_->reset();
    } else {
      // No mode switch available (already in the right mode, or no tuned
      // variant): drop the active controller's stale regime state instead.
      (retuned_active_ ? retuned_ : primary_)->reset();
    }
  }

  ControllerPtr primary_;
  ControllerPtr retuned_;
  detect::JunctionMonitor monitor_;
  bool retuned_active_ = false;
};

}  // namespace abp::core
