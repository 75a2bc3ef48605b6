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
#pragma once

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
[[nodiscard]] double pressure(const Pressure& p, double queue);

// Eq. (7): the largest outgoing-road capacity observable at the junction.
[[nodiscard]] double wstar(const IntersectionObservation& obs);

// Eq. (5): original back-pressure gain; uses the *total* incoming queue.
[[nodiscard]] double link_gain_original(const LinkState& link, const Pressure& p = {});

// Eq. (6): modified gain; per-lane incoming queue, shifted by W* so that
// negative pressure differences still compete for service.
[[nodiscard]] double link_gain_modified(const LinkState& link, double wstar_value,
                                        const Pressure& p = {});

// Eq. (8): utilization-aware gain with the full/empty sentinels.
[[nodiscard]] double link_gain_util(const LinkState& link, double wstar_value,
                                    const GainParams& params);

// Gains of all links of an observation under Eq. (8), in link order.
[[nodiscard]] std::vector<double> all_link_gains_util(const IntersectionObservation& obs,
                                                      const GainParams& params);
// Same, written into `gains` (resized to the link count), so a caller that
// keeps the buffer allocates nothing per decision.
void all_link_gains_util(const IntersectionObservation& obs, const GainParams& params,
                         std::vector<double>& gains);

// Eq. (10): total gain of a phase given per-link gains. Empty phase -> 0.
[[nodiscard]] double phase_gain(std::span<const int> phase_links,
                                std::span<const double> link_gains);

// Eq. (11): maximum link gain within a phase. Empty phase -> -infinity.
[[nodiscard]] double phase_gain_max(std::span<const int> phase_links,
                                    std::span<const double> link_gains);

// Index (into the observation) of the link attaining phase_gain_max;
// -1 for an empty phase. Ties resolve to the first link in phase order.
[[nodiscard]] int phase_argmax_link(std::span<const int> phase_links,
                                    std::span<const double> link_gains);

}  // namespace abp::core
