// Krauss lane kernel: the micro-sim sweep's per-lane update (lane_update) as
// multi-pass, branchless, auto-vectorizable array passes over the lane's SoA
// state (Lane::pos/speed), or, on lanes of at most kFusedLaneMax vehicles, as
// one fused head-first pass of the same arithmetic; plus the scalar
// reference implementation the equality tests and the kernel microbench
// compare against.
//
// The synchronous Krauss (1998) update makes every per-vehicle computation
// within a lane depend only on *previous-step* leader kinematics, so the
// expensive per-vehicle work — the safe-speed radical and the dawdle draw —
// is element-wise over the lane once the gaps are materialized. The kernel
// exploits that in four passes:
//
//   1. lane_gaps         gap/leader-speed stencil from pos[i-1], pos[i]
//   2. lane_speeds       branchless safe-speed/min/max chain + dawdle; the
//                        data-dependent branches of next_speed() become
//                        element-wise selects, so gcc/clang vectorize the
//                        pass at -O3 (sqrt included; see -fno-math-errno in
//                        CMakeLists.txt)
//   3. lane_integrate    position integration + stop-line head clamp, and an
//                        OR-reduction flagging whether any follower violates
//                        the overlap guard
//   4. lane_clamp        the (rare) sequential overlap-guard fallback
//
// Every pass performs the same arithmetic in the same element order as the
// scalar loop it replaces, so results are bit-identical — pinned lane-level
// by tests/microsim_krauss_test.cpp and end-to-end by the golden determinism
// and scenario-library pins. Dawdle draws come from StreamRng's bulk fill
// (counter-based, so a batch of n draws is indistinguishable from n scalar
// calls, including the final counter). The fused pass runs passes 1-4's
// operations vehicle by vehicle (lane_update_fused).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "src/microsim/krauss.hpp"
#include "src/util/rng.hpp"

namespace abp::microsim {

// Gap value that behaves as "no obstacle ahead".
inline constexpr double kFreeGap = 1e9;

// Reusable scratch for the kernel's materialized arrays. The sweep keeps one
// instance (not one per lane): capacity grows to the widest lane it ever
// sees and is reused across lanes and ticks.
struct LaneKernelScratch {
  std::vector<double> gap;
  std::vector<double> lead_v;
  std::vector<double> draws;

  void ensure(std::size_t n) {
    if (gap.size() < n) {
      gap.resize(n);
      lead_v.resize(n);
      draws.resize(n);
    }
  }
};

// Pass 1 — gap/leader stencil, head-first order (slot 0 = lane head).
// gap[i] and lead_v[i] are follower i's view of its leader's previous-step
// kinematics; the head's obstacle (stop line or free run-out) is a
// caller-computed scalar since it is not a stencil of the arrays.
inline void lane_gaps(const double* __restrict pos, const double* __restrict speed,
                      std::size_t n, double head_gap, double vehicle_length,
                      double min_gap, double* __restrict gap, double* __restrict lead_v) {
  for (std::size_t i = 1; i < n; ++i) {
    gap[i] = pos[i - 1] - vehicle_length - pos[i] - min_gap;
    lead_v[i] = speed[i - 1];
  }
  gap[0] = head_gap;
  lead_v[0] = 0.0;
}

// The per-update constants of the synchronous Krauss speed rule.
struct KraussTerms {
  double a_dt;
  double bt;
  double bt2;
  double two_b;
  double dawdle_scale;

  KraussTerms(const VehicleParams& p, double dt)
      : a_dt(p.accel_mps2 * dt),
        bt(p.decel_mps2 * p.tau_s),
        bt2(bt * bt),
        two_b(2.0 * p.decel_mps2),
        dawdle_scale(p.sigma * p.accel_mps2 * dt) {}
};

// next_speed()'s desired speed min(speed_limit, v + a dt, v_safe) before
// dawdling, with its two data-dependent branches (gap <= 0, the max(0, ..)
// clips) rewritten as selects: identical arithmetic on identical operands, so
// the result is bit-identical (the sqrt is computed unconditionally on
// max(0, radicand) — a vectorized sqrt lane costs what the scalar fast path
// saved, which is how next_speed_fast's sqrt-eliding branch generalizes to a
// per-element mask that never needs materializing). Never -0.0: both min
// operands are max(0, ..) results or positive.
[[nodiscard]] inline double krauss_desired(double v, double gap, double lead_v,
                                           double speed_limit, const KraussTerms& k) {
  const double cap = std::min(speed_limit, v + k.a_dt);
  const double radicand = k.bt2 + lead_v * lead_v + k.two_b * gap;
  const double root = std::sqrt(std::max(0.0, radicand));
  double v_safe = std::max(0.0, -k.bt + root);
  // The gap <= 0 select is written as a conditional overwrite rather than a
  // ternary: gcc 12's if-conversion turns this form into a blend but leaves
  // the equivalent ternary as control flow, which blocks vectorizing the
  // whole of lane_speeds.
  if (gap <= 0.0) v_safe = 0.0;
  return std::min(cap, v_safe);
}

// Pass 2 — branchless synchronous Krauss speed update, in place. Element i
// performs exactly next_speed(speed[i], gap[i], lead_v[i], ...) of
// krauss.hpp through krauss_desired, in array order.
// `draws` must hold vehicle-ordered dawdle draws (draws[i] belongs to slot i,
// filled tail-first via StreamRng::fill_u01_tailfirst); nullptr disables
// dawdling exactly like passing rand01 = 0 per element.
inline void lane_speeds(double* __restrict speed, const double* __restrict gap,
                        const double* __restrict lead_v, const double* __restrict draws,
                        std::size_t n, double speed_limit, const VehicleParams& p,
                        double dt) {
  const KraussTerms k(p, dt);
  if (draws != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const double v_des = krauss_desired(speed[i], gap[i], lead_v[i], speed_limit, k);
      speed[i] = std::max(0.0, v_des - k.dawdle_scale * draws[i]);
    }
  } else {
    // rand01 = 0 makes the dawdle term (+-)0.0; v_des is never -0.0, so
    // subtracting it is the identity and the reference's max(0, v_des - 0.0)
    // is max(0, v_des).
    for (std::size_t i = 0; i < n; ++i) {
      speed[i] = std::max(0.0, krauss_desired(speed[i], gap[i], lead_v[i], speed_limit, k));
    }
  }
}

// Pass 3 — integrate positions in place from the already-updated speeds,
// clamp the head at the stop line (non-exit roads), and report whether any
// follower trips the overlap guard against its leader's *tentative* new
// position. A false of the report is exact: a follower can only need
// clamping against a *final* leader position if that leader itself moved
// under a clamp, which this pass already flagged. The head clamp is applied
// here (scalar, O(1)) rather than flagged because a red-light head hits it
// every tick while it creeps against the stop line — flagging it would send
// every queued lane down the sequential fallback.
[[nodiscard]] inline bool lane_integrate(double* __restrict pos,
                                         double* __restrict speed, std::size_t n,
                                         double dt, double vehicle_length, bool is_exit,
                                         double road_length) {
  for (std::size_t i = 0; i < n; ++i) pos[i] += speed[i] * dt;
  if (!is_exit && pos[0] > road_length - 0.2) {
    pos[0] = road_length - 0.2;  // hold at the stop line
    speed[0] = 0.0;
  }
  int clamp_needed = 0;
  for (std::size_t i = 1; i < n; ++i) {
    clamp_needed |= pos[i] > pos[i - 1] - vehicle_length - 0.1 ? 1 : 0;
  }
  return clamp_needed != 0;
}

// Pass 4 (rare) — the sequential overlap-guard fallback, run only when
// lane_integrate flagged a potential violation: the scalar reference's guard
// verbatim, clamping each follower against its leader's *final* position and
// speed so a clamp can cascade tail-ward exactly as in the reference.
inline void lane_clamp(double* pos, double* speed, std::size_t n, double vehicle_length) {
  for (std::size_t i = 1; i < n; ++i) {
    const double limit = pos[i - 1] - vehicle_length - 0.1;
    if (pos[i] > limit) {
      pos[i] = std::max(0.0, limit);
      speed[i] = std::min(speed[i], speed[i - 1]);
    }
  }
}

// The full kinematic lane update (speeds + positions; accounting stays with
// the caller): bulk dawdle fill, then passes 1-4. `rng` nullptr disables
// dawdling (and consumes no draws), matching the scalar reference.
inline void lane_update_vectorized(double* pos, double* speed, std::size_t n,
                                   double speed_limit, double road_length, bool is_exit,
                                   const VehicleParams& p, double dt, StreamRng* rng,
                                   LaneKernelScratch& scratch) {
  if (n == 0) [[unlikely]] return;  // no head to read; the reference is a no-op too
  scratch.ensure(n);
  const double* draws = nullptr;
  if (rng != nullptr) {
    rng->fill_u01_tailfirst(scratch.draws.data(), n);
    draws = scratch.draws.data();
  }
  const double head_gap = is_exit ? kFreeGap : road_length - pos[0];
  lane_gaps(pos, speed, n, head_gap, p.length_m, p.min_gap_m, scratch.gap.data(),
            scratch.lead_v.data());
  lane_speeds(speed, scratch.gap.data(), scratch.lead_v.data(), draws, n, speed_limit, p,
              dt);
  if (lane_integrate(pos, speed, n, dt, p.length_m, is_exit, road_length)) {
    lane_clamp(pos, speed, n, p.length_m);
  }
}

// Lanes of at most this many vehicles take lane_update_fused; longer ones
// take lane_update_vectorized (see the note on occupancy cutoffs below).
inline constexpr std::size_t kFusedLaneMax = 4;

// The full kinematic lane update as one head-first pass, for lanes of at
// most kFusedLaneMax vehicles: per vehicle, the operations of passes 1-4 on
// the same operands, with no scratch arrays. A follower's gap and leader
// speed come from its leader's previous-step state, kept in locals before
// the leader's slot is overwritten (pass 1); its speed from krauss_desired
// and the same dawdle term (pass 2); its position from the same add (pass
// 3). The head's stop-line hold is a select (a red-light head trips it every
// tick), and each follower is clamped against its leader's *final* position
// and speed (pass 4). Running the clamp test on every follower is exact:
// lane_integrate's flag is clear only when no follower passes its leader's
// tentative position, and without a clamp the tentative positions are the
// final ones. Draws come from one fill_u01_tailfirst call, as in
// lane_update_vectorized; with `rng` nullptr the dawdle term is 0.0 * 0.0,
// and v_des - 0.0 is lane_speeds' v_des (never -0.0).
inline void lane_update_fused(double* pos, double* speed, std::size_t n, double speed_limit,
                              double road_length, bool is_exit, const VehicleParams& p,
                              double dt, StreamRng* rng) {
  if (n == 0) [[unlikely]] return;  // no head to read; the reference is a no-op too
  const KraussTerms k(p, dt);
  double draws[kFusedLaneMax] = {};
  double dawdle_scale = 0.0;
  if (rng != nullptr) {
    rng->fill_u01_tailfirst(draws, n);
    dawdle_scale = k.dawdle_scale;
  }
  // The leader's previous-step position and speed, for the follower's gap.
  double lead_pos = pos[0];
  double lead_v = speed[0];
  const double head_gap = is_exit ? kFreeGap : road_length - pos[0];
  double v = std::max(
      0.0, krauss_desired(speed[0], head_gap, 0.0, speed_limit, k) - dawdle_scale * draws[0]);
  double x = pos[0] + v * dt;
  const bool hold = !is_exit && x > road_length - 0.2;  // hold at the stop line
  // The leader's final position and speed, for the follower's overlap guard.
  double final_pos = hold ? road_length - 0.2 : x;
  double final_v = hold ? 0.0 : v;
  pos[0] = final_pos;
  speed[0] = final_v;
  for (std::size_t i = 1; i < n; ++i) {
    const double old_pos = pos[i];
    const double old_v = speed[i];
    const double gap = lead_pos - p.length_m - old_pos - p.min_gap_m;
    v = std::max(0.0,
                 krauss_desired(old_v, gap, lead_v, speed_limit, k) - dawdle_scale * draws[i]);
    x = old_pos + v * dt;
    const double limit = final_pos - p.length_m - 0.1;
    const bool clamp = x > limit;
    final_pos = clamp ? std::max(0.0, limit) : x;
    final_v = clamp ? std::min(v, final_v) : v;
    pos[i] = final_pos;
    speed[i] = final_v;
    lead_pos = old_pos;
    lead_v = old_v;
  }
}

// The sweep's lane update: lane_update_fused up to kFusedLaneMax vehicles,
// lane_update_vectorized above. Both are bit-identical to
// lane_update_reference.
inline void lane_update(double* pos, double* speed, std::size_t n, double speed_limit,
                        double road_length, bool is_exit, const VehicleParams& p, double dt,
                        StreamRng* rng, LaneKernelScratch& scratch) {
  if (n <= kFusedLaneMax) {
    lane_update_fused(pos, speed, n, speed_limit, road_length, is_exit, p, dt, rng);
  } else {
    lane_update_vectorized(pos, speed, n, speed_limit, road_length, is_exit, p, dt, rng,
                           scratch);
  }
}

// Scalar reference: the pre-vectorization per-vehicle loop, kept as the
// semantic baseline, the target of the lane-level bit-equality pin, and one
// side of bench_krauss_kernel's comparison. Consumes rng draws tail-first
// (slot n-1 first), exactly as the historical sweep did — fill_u01_tailfirst
// reproduces precisely this consumption order, which is why the
// implementations share one stream position.
inline void lane_update_reference(double* pos, double* speed, std::size_t n,
                                  double speed_limit, double road_length, bool is_exit,
                                  const VehicleParams& p, double dt, StreamRng* rng) {
  // Pass 1 — synchronous Krauss speeds, tail-first so the new speed can
  // overwrite speed[i] in place after follower i+1 consumed the old value.
  for (std::size_t i = n; i-- > 0;) {
    const double position = pos[i];
    const double current = speed[i];
    double gap;
    double lead_v;
    if (i > 0) {
      gap = pos[i - 1] - p.length_m - position - p.min_gap_m;
      lead_v = speed[i - 1];
    } else if (is_exit) {
      gap = kFreeGap;  // drives off the far end
      lead_v = 0.0;
    } else {
      gap = road_length - position;
      lead_v = 0.0;
    }
    const double dawdle = rng != nullptr ? rng->uniform01() : 0.0;
    speed[i] = next_speed_fast(current, gap, lead_v, speed_limit, p, dt, dawdle);
  }
  // Pass 2 — positions and overlap guards, head-first against the leader's
  // *new* position.
  double leader_pos = 0.0;
  double leader_speed = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double v = speed[i];
    double position = pos[i] + v * dt;
    if (i > 0) {
      const double limit = leader_pos - p.length_m - 0.1;
      if (position > limit) {
        position = std::max(0.0, limit);
        v = std::min(v, leader_speed);
        speed[i] = v;
      }
    } else if (!is_exit && position > road_length - 0.2) {
      position = road_length - 0.2;  // hold at the stop line
      v = 0.0;
      speed[i] = v;
    }
    pos[i] = position;
    leader_pos = position;
    leader_speed = v;
  }
}

// Note on occupancy cutoffs: bench_krauss_kernel shows the scalar reference
// ahead of the vectorized passes below ~8 vehicles *in isolation* — but that
// advantage is a microbench artifact (a single lane in steady state trains
// the branch predictor perfectly, hiding the reference's data-dependent
// branches). In the real sweep, where lane states vary from tick to tick,
// dispatching short lanes to the reference measured ~15% *slower* end to end
// than running the vectorized passes everywhere. What short lanes do pay for
// is the passes' fixed cost: four loops and three scratch arrays for a
// handful of vehicles. lane_update_fused removes it with the same branchless
// arithmetic in one pass, and most lane visits of a sparse grid hold at most
// kFusedLaneMax vehicles (83% on a 64x64 grid filling from empty). Longer
// lanes keep the vectorized passes: a fused pass at every occupancy measured
// slower on the dense 8x8 benchmark, where most vehicle-steps sit on longer
// lanes (see docs/PERFORMANCE.md "Vectorized lane kernel").

}  // namespace abp::microsim
