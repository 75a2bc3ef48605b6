// Fault-injected controller decorator: sensor faults and controller failure
// with graceful degradation, applied in the sequential control phase.
//
// Fault injection must not disturb the repository's determinism guarantees
// (fixed-seed runs bit-identical, batch identical to serial — see
// docs/ROBUSTNESS.md). Both simulators invoke their controllers one junction
// at a time in the control phase of the tick, so a decorator wrapped around a
// junction's controller sees the same observation stream in the same order
// as the controller would. That is why sensor and controller faults live
// here rather than inside the backends — one implementation covers both
// simulators, and the hot lane sweep never learns faults exist.
//
// Sensor faults perturb only the sensor-derived readings of the observation
// (queue, upstream_total, downstream_queue); physical state — occupancies,
// capacities, service rates — is never forged, mirroring how the backends'
// own SensorModel treats Eq. (8)'s capacity test as ground truth. Noise
// draws come from a dedicated counter-based StreamRng per decorator, so the
// backends' existing RNG streams are untouched and golden pins with an empty
// fault schedule stay bit-identical.
//
// Controller failure delegates to a fallback FixedTimeController (classical
// pre-timed control needs no sensor input, which is exactly why real
// deployments degrade to it). On recovery the primary is reset() before it
// resumes: its internal clocks would otherwise be stale by the outage length.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "src/core/controller.hpp"
#include "src/util/rng.hpp"

namespace abp::core {

enum class SensorFaultKind {
  // All sensor readings report zero — dead detectors.
  Dropout,
  // Readings freeze at the last healthy values (zero if the fault is active
  // from the first decision on).
  StuckAt,
  // Readings are offset by `bias` plus a uniform integer in
  // [-noise_magnitude, +noise_magnitude], clamped at zero — miscalibrated or
  // electrically noisy detectors.
  Noise,
};

// A sensor fault active on [start_s, end_s) at one junction.
struct SensorFaultWindow {
  double start_s = 0.0;
  double end_s = std::numeric_limits<double>::infinity();
  SensorFaultKind kind = SensorFaultKind::Dropout;
  int bias = 0;             // Noise only
  int noise_magnitude = 0;  // Noise only
};

// The junction's controller is failed on [fail_s, recover_s); an infinite
// recover_s means it never comes back.
struct ControllerFaultWindow {
  double fail_s = 0.0;
  double recover_s = std::numeric_limits<double>::infinity();
};

// Decorates one junction's controller with its scheduled faults. decide()
// applies, in order: the active sensor fault (if any) to a scratch copy of
// the observation, then either the failed-over fallback or the primary.
// Consumes RNG only while a Noise window is active, and only from its own
// stream — a decorator-wrapped run with no active fault window is
// bit-identical to an unwrapped one.
class FaultInjectedController final : public SignalController {
 public:
  // `noise_seed`/`noise_stream` key the decorator's private StreamRng;
  // make_simulator derives them from (config.seed, junction index) so
  // distinct junctions draw independent noise.
  FaultInjectedController(ControllerPtr primary, ControllerPtr fallback,
                          std::vector<ControllerFaultWindow> failures,
                          std::vector<SensorFaultWindow> sensor_faults,
                          std::uint64_t noise_seed, std::uint64_t noise_stream);

  [[nodiscard]] net::PhaseIndex decide(const IntersectionObservation& obs) override;
  void reset() override;
  // Reports the primary's name: fault injection is a property of the run,
  // not of the policy under test.
  [[nodiscard]] std::string name() const override { return primary_->name(); }

  // True while the primary is failed over to the fallback (test hook).
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }

 private:
  [[nodiscard]] const SensorFaultWindow* active_sensor_fault(double time) const;
  [[nodiscard]] bool failure_active(double time) const;
  void perturb(IntersectionObservation& obs, const SensorFaultWindow& fault);
  [[nodiscard]] int noisy(int value, const SensorFaultWindow& fault);

  ControllerPtr primary_;
  ControllerPtr fallback_;
  std::vector<ControllerFaultWindow> failures_;
  std::vector<SensorFaultWindow> sensor_faults_;
  std::uint64_t noise_seed_ = 0;
  std::uint64_t noise_stream_ = 0;
  StreamRng noise_rng_;
  bool degraded_ = false;
  // Most recent healthy link readings, the StuckAt freeze frame. Maintained
  // only when a StuckAt window exists.
  bool has_stuck_window_ = false;
  std::vector<LinkState> last_healthy_;
  // Scratch for the perturbed observation, reused across decisions.
  IntersectionObservation scratch_;
};

}  // namespace abp::core
