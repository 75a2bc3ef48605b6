#include "src/core/bp_util.hpp"

#include <limits>
#include <stdexcept>

namespace abp::core {

UtilBpController::UtilBpController(const IntersectionPlan& plan, UtilBpConfig config,
                                   double pressure_capacity)
    : num_links_(plan.num_links),
      config_(config),
      gain_params_{config_.alpha, config_.beta,
                   Pressure(config_.pressure_kind, pressure_capacity)} {
  if (config_.alpha >= 0.0 || config_.beta >= 0.0) {
    throw std::invalid_argument("UTIL-BP requires negative alpha and beta sentinels");
  }
  if (config_.amber_duration_s < 0.0) {
    throw std::invalid_argument("amber duration must be non-negative");
  }
  if (plan.num_control_phases() < 1) {
    throw std::invalid_argument("UTIL-BP needs at least one control phase");
  }
  std::size_t total = 0;
  for (const std::vector<int>& phase : plan.phases) total += phase.size();
  phase_start_.reserve(plan.phases.size() + 1);
  phase_links_.reserve(total);
  for (const std::vector<int>& phase : plan.phases) {
    phase_start_.push_back(static_cast<int>(phase_links_.size()));
    phase_links_.insert(phase_links_.end(), phase.begin(), phase.end());
  }
  phase_start_.push_back(static_cast<int>(phase_links_.size()));
}

double UtilBpController::idle_hold_until() const {
  if (current_ == net::kTransitionPhase) return transition_until_;
  const auto j = static_cast<std::size_t>(current_);
  return phase_start_[j] == phase_start_[j + 1] ? -std::numeric_limits<double>::infinity()
                                                : std::numeric_limits<double>::infinity();
}

void UtilBpController::reset() {
  current_ = net::kTransitionPhase;
  transition_until_ = -1.0;
}

PhaseGains UtilBpController::gains_of_phase(int phase, const IntersectionObservation& obs,
                                            double wstar_value) const {
  PhaseGains g;
  const auto j = static_cast<std::size_t>(phase);
  for (int k = phase_start_[j]; k < phase_start_[j + 1]; ++k) {
    const int link = phase_links_[static_cast<std::size_t>(k)];
    g.add(link,
          link_gain_util(obs.links[static_cast<std::size_t>(link)], wstar_value, gain_params_));
  }
  return g;
}

double UtilBpController::gstar_for(const IntersectionObservation& obs, double wstar_value,
                                   const PhaseGains& incumbent) const {
  switch (config_.gstar_policy) {
    case GStarPolicy::Zero:
      return 0.0;
    case GStarPolicy::Constant:
      return config_.gstar_constant;
    case GStarPolicy::WStarMu:
      // Eq. (12): W* times the service rate of the current phase's max-gain
      // link L_max(c(k-1), k).
      if (incumbent.argmax < 0) return 0.0;
      return wstar_value * obs.links[static_cast<std::size_t>(incumbent.argmax)].service_rate;
  }
  return 0.0;
}

net::PhaseIndex UtilBpController::decide(const IntersectionObservation& obs) {
  if (static_cast<int>(obs.links.size()) != num_links_) {
    throw std::invalid_argument("observation size does not match plan");
  }
  // Case 1: transition phase still running (Lines 1-2).
  if (current_ == net::kTransitionPhase && obs.time < transition_until_) {
    return net::kTransitionPhase;
  }

  // Case 2: current control phase still offers good utilization (Lines 3-4).
  const double w = wstar(obs);
  PhaseGains incumbent;
  if (current_ != net::kTransitionPhase) {
    incumbent = gains_of_phase(current_, obs, w);
    if (incumbent.max > gstar_for(obs, w, incumbent)) return current_;
  }

  // Case 3: select a (possibly new) control phase (Lines 5-18), in one pass
  // over the phases that keeps both scenarios' candidates. Scenario 1 (Lines
  // 6-8): among the phases whose gmax exceeds alpha, which guarantee
  // utilization in the next mini-slot, maximize the *total* gain — the best
  // effort against instability. Scenario 2 (Line 10), when no phase does:
  // the phase with the single highest link gain. Both need a strict
  // improvement, except that the incumbent phase wins ties: switching on a
  // tie would only buy an extra amber period.
  bool utilized = false;
  net::PhaseIndex best_total_phase = net::kTransitionPhase;
  double best_total = -std::numeric_limits<double>::infinity();
  net::PhaseIndex best_max_phase = 1;
  double best_max = -std::numeric_limits<double>::infinity();
  const int phases = static_cast<int>(phase_start_.size()) - 2;  // control phases 1..phases
  for (int j = 1; j <= phases; ++j) {
    const PhaseGains g = j == current_ ? incumbent : gains_of_phase(j, obs, w);
    const bool guarantees_utilization = g.max > config_.alpha;
    utilized = utilized || guarantees_utilization;
    if (guarantees_utilization &&
        (g.total > best_total || (g.total == best_total && j == current_))) {
      best_total = g.total;
      best_total_phase = j;
    }
    if (g.max > best_max || (g.max == best_max && j == current_)) {
      best_max = g.max;
      best_max_phase = j;
    }
  }
  const net::PhaseIndex chosen = utilized ? best_total_phase : best_max_phase;
  if (chosen == current_ || current_ == net::kTransitionPhase) {
    current_ = chosen;
    return current_;
  }
  current_ = net::kTransitionPhase;
  transition_until_ = obs.time + config_.amber_duration_s;
  return net::kTransitionPhase;
}

}  // namespace abp::core
