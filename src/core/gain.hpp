// Link-gain metrics: the decision quantities of back-pressure signal control.
//
// Implements, in one place tested against the paper's equations:
//   Eq. (4)  b = f(q), the pressure mapping (identity by default),
//   Eq. (5)  the original link gain  g_o = max(0, (b_i - b_{i'}) mu),
//   Eq. (6)  the modified link gain  g = (b_i^{i'} - b_{i'} + W*) mu,
//   Eq. (7)  W* = max_{i' in N_O} W_{i'},
//   Eq. (8)  the utilization-aware gain with the sentinels beta (full
//            outgoing road) and alpha (empty incoming lane),
//   Eq. (10) phase gain g(c_j,k) = sum of constituent link gains,
//   Eq. (11) gmax(c_j,k) = max of constituent link gains.
// Every helper is inline, so a controller's decision pass (UtilBpController)
// folds them into its one loop over the phase table instead of calling out
// per link and per phase.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "src/core/observation.hpp"

namespace abp::core {

// Preset pressure mappings b = f(q) for Eq. (4). The paper uses the identity
// but states the framework only needs a non-decreasing mapping:
//   Identity   — the paper's choice; pressure equals queue length.
//   Sqrt       — concave: long queues saturate, short queues dominate
//                decisions (fairness-leaning).
//   Quadratic  — convex: long queues dominate strongly (starvation-averse).
//   Normalized — q / W: pressure as occupancy fraction, the scaling CAP-BP
//                uses internally.
enum class PressureKind { Identity, Sqrt, Quadratic, Normalized };

[[nodiscard]] std::string pressure_kind_name(PressureKind kind);

// One pressure mapping: a preset and the W that Normalized divides by (the
// network's largest road capacity; the other presets ignore it).
struct Pressure {
  Pressure() = default;
  // Throws std::invalid_argument when Normalized gets no positive capacity.
  Pressure(PressureKind kind, double capacity);

  PressureKind kind = PressureKind::Identity;
  double capacity = 0.0;
};

// The W of a controller built without a network: the paper's road capacity.
inline constexpr double kDefaultPressureCapacity = 120.0;

// Parameters of the utilization-aware gain (Eq. 8/9).
struct GainParams {
  // Gain of a movement whose per-lane incoming queue is empty while the
  // outgoing road still has space: activating it serves only newly arriving
  // vehicles. Must be negative.
  double alpha = -1.0;
  // Gain of a movement whose outgoing road is full: activating it serves
  // nothing at all. The paper recommends beta < alpha < 0, but allows the
  // traffic authority to invert the order; we only require both negative.
  double beta = -2.0;
  Pressure pressure;
};

// Applies the pressure mapping b = f(queue).
[[nodiscard]] inline double pressure(const Pressure& p, double queue) {
  switch (p.kind) {
    case PressureKind::Identity:
      return queue;
    case PressureKind::Sqrt:
      return std::sqrt(std::max(0.0, queue));
    case PressureKind::Quadratic:
      return queue * queue;
    case PressureKind::Normalized:
      return queue / p.capacity;
  }
  return queue;
}

// Eq. (7): the largest outgoing-road capacity observable at the junction.
[[nodiscard]] inline double wstar(const IntersectionObservation& obs) {
  double w = 0.0;
  for (const LinkState& l : obs.links) {
    w = std::max(w, static_cast<double>(l.downstream_capacity));
  }
  return w;
}

// Eq. (5): original back-pressure gain; uses the *total* incoming queue.
[[nodiscard]] inline double link_gain_original(const LinkState& link, const Pressure& p = {}) {
  const double diff = pressure(p, link.upstream_total) - pressure(p, link.downstream_queue);
  return std::max(0.0, diff * link.service_rate);
}

// Eq. (6): modified gain; per-lane incoming queue, shifted by W* so that
// negative pressure differences still compete for service.
[[nodiscard]] inline double link_gain_modified(const LinkState& link, double wstar_value,
                                               const Pressure& p = {}) {
  const double diff = pressure(p, link.queue) - pressure(p, link.downstream_queue);
  return (diff + wstar_value) * link.service_rate;
}

// Eq. (8): utilization-aware gain with the full/empty sentinels.
[[nodiscard]] inline double link_gain_util(const LinkState& link, double wstar_value,
                                           const GainParams& params) {
  if (link.downstream_total >= link.downstream_capacity) return params.beta;
  if (link.queue == 0) return params.alpha;
  return link_gain_modified(link, wstar_value, params.pressure);
}

// Gains of all links of an observation under Eq. (8), written into `gains`
// (resized to the link count) in link order, so a caller that keeps the
// buffer allocates nothing per decision.
inline void all_link_gains_util(const IntersectionObservation& obs, const GainParams& params,
                                std::vector<double>& gains) {
  const double w = wstar(obs);
  gains.resize(obs.links.size());
  for (std::size_t i = 0; i < obs.links.size(); ++i) {
    gains[i] = link_gain_util(obs.links[i], w, params);
  }
}
// Same, into a fresh vector.
[[nodiscard]] inline std::vector<double> all_link_gains_util(const IntersectionObservation& obs,
                                                             const GainParams& params) {
  std::vector<double> gains;
  all_link_gains_util(obs, params, gains);
  return gains;
}

// Eq. (10) and (11) of one phase, folded link by link in phase order: the
// total gain (0 for an empty phase), the maximum link gain (-infinity) and
// the index of the first link attaining it (-1).
struct PhaseGains {
  double total = 0.0;
  double max = -std::numeric_limits<double>::infinity();
  int argmax = -1;

  void add(int link, double gain) {
    total += gain;
    if (gain > max) {
      max = gain;
      argmax = link;
    }
  }
};

// PhaseGains of a phase given per-link gains.
[[nodiscard]] inline PhaseGains phase_gains(std::span<const int> phase_links,
                                            std::span<const double> link_gains) {
  PhaseGains g;
  for (int idx : phase_links) g.add(idx, link_gains[static_cast<std::size_t>(idx)]);
  return g;
}

// Eq. (10): total gain of a phase given per-link gains. Empty phase -> 0.
[[nodiscard]] inline double phase_gain(std::span<const int> phase_links,
                                       std::span<const double> link_gains) {
  return phase_gains(phase_links, link_gains).total;
}

// Eq. (11): maximum link gain within a phase. Empty phase -> -infinity.
[[nodiscard]] inline double phase_gain_max(std::span<const int> phase_links,
                                           std::span<const double> link_gains) {
  return phase_gains(phase_links, link_gains).max;
}

// Index (into the observation) of the link attaining phase_gain_max;
// -1 for an empty phase. Ties resolve to the first link in phase order.
[[nodiscard]] inline int phase_argmax_link(std::span<const int> phase_links,
                                           std::span<const double> link_gains) {
  return phase_gains(phase_links, link_gains).argmax;
}

}  // namespace abp::core
