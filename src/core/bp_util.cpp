#include "src/core/bp_util.hpp"

#include <limits>
#include <stdexcept>

namespace abp::core {

UtilBpController::UtilBpController(IntersectionPlan plan, UtilBpConfig config,
                                   double pressure_capacity)
    : plan_(std::move(plan)),
      config_(config),
      gain_params_{config_.alpha, config_.beta,
                   Pressure(config_.pressure_kind, pressure_capacity)} {
  if (config_.alpha >= 0.0 || config_.beta >= 0.0) {
    throw std::invalid_argument("UTIL-BP requires negative alpha and beta sentinels");
  }
  if (config_.amber_duration_s < 0.0) {
    throw std::invalid_argument("amber duration must be non-negative");
  }
  if (plan_.num_control_phases() < 1) {
    throw std::invalid_argument("UTIL-BP needs at least one control phase");
  }
}

double UtilBpController::idle_hold_until() const {
  if (current_ == net::kTransitionPhase) return transition_until_;
  return plan_.phases[static_cast<std::size_t>(current_)].empty()
             ? -std::numeric_limits<double>::infinity()
             : std::numeric_limits<double>::infinity();
}

void UtilBpController::reset() {
  current_ = net::kTransitionPhase;
  transition_until_ = -1.0;
}

double UtilBpController::gstar_for(const IntersectionObservation& obs,
                                   std::span<const double> gains) const {
  switch (config_.gstar_policy) {
    case GStarPolicy::Zero:
      return 0.0;
    case GStarPolicy::Constant:
      return config_.gstar_constant;
    case GStarPolicy::WStarMu: {
      // Eq. (12): W* times the service rate of the current phase's max-gain
      // link L_max(c(k-1), k).
      const auto& phase = plan_.phases[static_cast<std::size_t>(current_)];
      const int lmax = phase_argmax_link(phase, gains);
      if (lmax < 0) return 0.0;
      return wstar(obs) * obs.links[static_cast<std::size_t>(lmax)].service_rate;
    }
  }
  return 0.0;
}

net::PhaseIndex UtilBpController::select_phase(std::span<const double> gains) const {
  const int phases = plan_.num_control_phases();
  // Scenario 1 (Lines 6-8): some phase guarantees utilization in the next
  // mini-slot. Among those, maximize the *total* gain — the best effort
  // against instability.
  double best_gmax = -std::numeric_limits<double>::infinity();
  for (int j = 1; j <= phases; ++j) {
    best_gmax = std::max(
        best_gmax, phase_gain_max(plan_.phases[static_cast<std::size_t>(j)], gains));
  }
  if (best_gmax > config_.alpha) {
    net::PhaseIndex best = net::kTransitionPhase;
    double best_total = -std::numeric_limits<double>::infinity();
    for (int j = 1; j <= phases; ++j) {
      const auto& phase = plan_.phases[static_cast<std::size_t>(j)];
      if (phase_gain_max(phase, gains) <= config_.alpha) continue;
      const double total = phase_gain(phase, gains);
      // Strict improvement required, except that the incumbent phase wins
      // ties: switching on a tie would only buy an extra amber period.
      if (total > best_total || (total == best_total && j == current_)) {
        best_total = total;
        best = j;
      }
    }
    return best;
  }
  // Scenario 2 (Line 10): utilization will be poor regardless; fall back to
  // the phase with the single highest link gain.
  net::PhaseIndex best = 1;
  double best_g = -std::numeric_limits<double>::infinity();
  for (int j = 1; j <= phases; ++j) {
    const double g = phase_gain_max(plan_.phases[static_cast<std::size_t>(j)], gains);
    if (g > best_g || (g == best_g && j == current_)) {
      best_g = g;
      best = j;
    }
  }
  return best;
}

net::PhaseIndex UtilBpController::decide(const IntersectionObservation& obs) {
  if (static_cast<int>(obs.links.size()) != plan_.num_links) {
    throw std::invalid_argument("observation size does not match plan");
  }
  all_link_gains_util(obs, gain_params_, gains_);
  const std::span<const double> gains = gains_;

  // Case 1: transition phase still running (Lines 1-2).
  if (current_ == net::kTransitionPhase && obs.time < transition_until_) {
    return net::kTransitionPhase;
  }

  // Case 2: current control phase still offers good utilization (Lines 3-4).
  if (current_ != net::kTransitionPhase) {
    const auto& phase = plan_.phases[static_cast<std::size_t>(current_)];
    if (phase_gain_max(phase, gains) > gstar_for(obs, gains)) {
      return current_;
    }
  }

  // Case 3: select a (possibly new) control phase (Lines 5-18).
  const net::PhaseIndex chosen = select_phase(gains);
  if (chosen == current_ || current_ == net::kTransitionPhase) {
    current_ = chosen;
    return current_;
  }
  current_ = net::kTransitionPhase;
  transition_until_ = obs.time + config_.amber_duration_s;
  return net::kTransitionPhase;
}

}  // namespace abp::core
