// UTIL-BP: the paper's utilization-aware adaptive back-pressure controller
// (Algorithm 1).
//
// Invoked every mini-slot, which is what enables varying-length control
// phases. Three cases:
//   Case 1  — amber (transition) still running: keep c0.
//   Case 2  — current phase still has a link with gain above the hysteresis
//             threshold g*(k): keep it (limits the number of transitions).
//   Case 3  — re-select: among phases that guarantee some utilization
//             (gmax > alpha) pick the one with the largest total gain;
//             if none exists, pick the phase with the largest single link
//             gain. Switching to a different phase first runs the amber
//             transition of length Delta-k.
// decide() walks the flattened phase table once: each link's Eq. (8) gain is
// folded into its phase's Eq. (10) total and Eq. (11) maximum as it is
// computed. Case 1 computes no gain, Case 2 only the current phase's, and
// Case 3 reuses those and keeps its choice as the other phases go by.
#pragma once

#include <string>
#include <vector>

#include "src/core/controller.hpp"
#include "src/core/gain.hpp"

namespace abp::core {

// Choice of the hysteresis threshold g*(k) used in Case 2.
enum class GStarPolicy {
  // Eq. (12): g* = W* mu of the current max-gain link, i.e. keep the phase
  // while that link's pressure difference is still positive.
  WStarMu,
  // g* = 0: keep the phase while any constituent gain is positive (most
  // reluctant to change that still respects work conservation).
  Zero,
  // g* = constant supplied in UtilBpConfig::gstar_constant.
  Constant,
};

struct UtilBpConfig {
  // Sentinel gains of Eq. (8)/(9); the paper uses alpha=-1, beta=-2.
  double alpha = -1.0;
  double beta = -2.0;
  // Transition-phase (amber) duration Delta-k; the paper uses 4 s.
  double amber_duration_s = 4.0;
  GStarPolicy gstar_policy = GStarPolicy::WStarMu;
  double gstar_constant = 0.0;
  // Pressure mapping b = f(q) of Eq. (4), by preset.
  PressureKind pressure_kind = PressureKind::Identity;
};

class UtilBpController final : public SignalController {
 public:
  // `pressure_capacity` is the W a Normalized pressure_kind divides by.
  UtilBpController(const IntersectionPlan& plan, UtilBpConfig config,
                   double pressure_capacity = kDefaultPressureCapacity);

  [[nodiscard]] net::PhaseIndex decide(const IntersectionObservation& obs) override;
  // On an idle observation every gain is alpha (Eq. 8), so Case 1 holds the
  // running amber until it expires, and a non-empty control phase survives
  // Cases 2 and 3 (scenario 2's gmax ties go to the incumbent) for good: the
  // amber's expiry, +infinity, or -infinity in any other state.
  [[nodiscard]] double idle_hold_until() const override;
  void reset() override;
  [[nodiscard]] std::string name() const override { return "UTIL-BP"; }

  [[nodiscard]] const UtilBpConfig& config() const noexcept { return config_; }
  // Currently displayed phase (0 while in transition). For tests/traces.
  [[nodiscard]] net::PhaseIndex current_phase() const noexcept { return current_; }

 private:
  // Eq. (8) gains of the phase's links, folded into its Eq. (10)/(11) sums.
  [[nodiscard]] PhaseGains gains_of_phase(int phase, const IntersectionObservation& obs,
                                          double wstar_value) const;
  // The hysteresis threshold g*(k) of Case 2, given the current phase's gains.
  [[nodiscard]] double gstar_for(const IntersectionObservation& obs, double wstar_value,
                                 const PhaseGains& incumbent) const;

  // The plan's phases, flattened once at construction: phase j activates
  // the local links phase_links_[phase_start_[j] .. phase_start_[j + 1]), in
  // plan order. Phase 0 is the transition phase.
  std::vector<int> phase_start_;
  std::vector<int> phase_links_;
  int num_links_ = 0;
  UtilBpConfig config_;
  GainParams gain_params_;
  net::PhaseIndex current_ = net::kTransitionPhase;
  // t_Deltak of Algorithm 1: expiry time of the running transition phase.
  double transition_until_ = -1.0;
};

}  // namespace abp::core
