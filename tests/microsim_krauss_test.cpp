// Tests for the Krauss car-following model: safety, stopping, speed keeping —
// and the lane-level pin of the sweep's kernel (the fused short-lane pass and
// the vectorized passes) against the scalar reference.
#include "src/microsim/krauss.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/microsim/lane_kernel.hpp"
#include "src/util/rng.hpp"

namespace abp::microsim {
namespace {

VehicleParams params() { return VehicleParams{}; }

TEST(Krauss, ZeroGapMeansZeroSpeed) {
  EXPECT_DOUBLE_EQ(safe_speed(0.0, 10.0, params()), 0.0);
  EXPECT_DOUBLE_EQ(safe_speed(-5.0, 10.0, params()), 0.0);
}

TEST(Krauss, SafeSpeedGrowsWithGap) {
  const VehicleParams p = params();
  double prev = 0.0;
  for (double gap = 1.0; gap <= 200.0; gap += 1.0) {
    const double v = safe_speed(gap, 0.0, p);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(Krauss, SafeSpeedGrowsWithLeaderSpeed) {
  const VehicleParams p = params();
  const double slow = safe_speed(10.0, 0.0, p);
  const double fast = safe_speed(10.0, 10.0, p);
  EXPECT_GT(fast, slow);
}

TEST(Krauss, NextSpeedRespectsSpeedLimit) {
  const VehicleParams p = params();
  double v = 0.0;
  for (int i = 0; i < 100; ++i) {
    v = next_speed(v, 1e9, 0.0, 13.9, p, 0.5, 0.0);
    EXPECT_LE(v, 13.9 + 1e-12);
  }
  EXPECT_NEAR(v, 13.9, 1e-9);
}

TEST(Krauss, AccelerationBounded) {
  const VehicleParams p = params();
  const double v0 = 5.0;
  const double v1 = next_speed(v0, 1e9, 0.0, 100.0, p, 0.5, 0.0);
  EXPECT_LE(v1 - v0, p.accel_mps2 * 0.5 + 1e-12);
}

TEST(Krauss, DawdlingReducesSpeed) {
  const VehicleParams p = params();
  const double crisp = next_speed(10.0, 1e9, 0.0, 13.9, p, 0.5, 0.0);
  const double dawdled = next_speed(10.0, 1e9, 0.0, 13.9, p, 0.5, 1.0);
  EXPECT_LT(dawdled, crisp);
  EXPECT_NEAR(crisp - dawdled, p.sigma * p.accel_mps2 * 0.5, 1e-12);
}

TEST(Krauss, StopsBeforeStandingObstacle) {
  // Integrate an approach to a stop line 100 m ahead: the vehicle must come
  // to rest without ever crossing it.
  const VehicleParams p = params();
  const double dt = 0.5;
  double pos = 0.0;
  double v = 13.9;
  for (int step = 0; step < 400; ++step) {
    const double gap = 100.0 - pos;
    v = next_speed(v, gap, 0.0, 13.9, p, dt, 0.0);
    pos += v * dt;
    ASSERT_LE(pos, 100.0 + 1e-9) << "crossed the obstacle at step " << step;
  }
  EXPECT_NEAR(pos, 100.0, 1.5);
  EXPECT_NEAR(v, 0.0, 0.1);
}

class KraussFollowing : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KraussFollowing, NeverCollidesWithBrakingLeader) {
  // Leader performs an emergency stop; a dawdling follower must never hit it.
  const VehicleParams p = params();
  Rng rng(GetParam());
  const double dt = 0.5;
  double leader_pos = 30.0, leader_v = 13.9;
  double follower_pos = 0.0, follower_v = 13.9;
  for (int step = 0; step < 200; ++step) {
    // Leader brakes hard to zero.
    leader_v = std::max(0.0, leader_v - p.decel_mps2 * dt);
    leader_pos += leader_v * dt;
    const double gap = leader_pos - p.length_m - follower_pos - p.min_gap_m;
    follower_v = next_speed(follower_v, gap, leader_v, 13.9, p, dt, rng.uniform01());
    follower_pos += follower_v * dt;
    ASSERT_LT(follower_pos, leader_pos - p.length_m + 1e-9) << "collision at step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KraussFollowing, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class KraussPlatoon : public ::testing::TestWithParam<int> {};

TEST_P(KraussPlatoon, QueueDischargeIsOrderlyAndCollisionFree) {
  // N stopped vehicles behind a line that opens at t=0: all accelerate, none
  // collide, ordering preserved.
  const int n = GetParam();
  const VehicleParams p = params();
  Rng rng(42);
  const double dt = 0.5;
  std::vector<double> pos(static_cast<std::size_t>(n));
  std::vector<double> vel(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    pos[static_cast<std::size_t>(i)] = -static_cast<double>(i) * (p.length_m + p.min_gap_m);
  }
  for (int step = 0; step < 240; ++step) {
    for (int i = 0; i < n; ++i) {
      double gap = 1e9;
      double lv = 0.0;
      if (i > 0) {
        gap = pos[static_cast<std::size_t>(i - 1)] - p.length_m -
              pos[static_cast<std::size_t>(i)] - p.min_gap_m;
        lv = vel[static_cast<std::size_t>(i - 1)];
      }
      vel[static_cast<std::size_t>(i)] =
          next_speed(vel[static_cast<std::size_t>(i)], gap, lv, 13.9, p, dt, rng.uniform01());
      pos[static_cast<std::size_t>(i)] += vel[static_cast<std::size_t>(i)] * dt;
    }
    for (int i = 1; i < n; ++i) {
      ASSERT_LT(pos[static_cast<std::size_t>(i)],
                pos[static_cast<std::size_t>(i - 1)] - p.length_m + 1e-9)
          << "overlap at step " << step;
    }
  }
  // Everybody ends up moving.
  for (int i = 0; i < n; ++i) {
    EXPECT_GT(vel[static_cast<std::size_t>(i)], 1.0) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(PlatoonSizes, KraussPlatoon, ::testing::Values(2, 5, 10, 20, 40));

// --- Lane-level pin: the sweep's kernel == scalar reference, bit for bit ---
//
// The sweep calls lane_update, which takes lane_update_fused on lanes of at
// most kFusedLaneMax vehicles and lane_update_vectorized above. Every case
// drives lane_update, and the vectorized passes directly as well, against
// lane_update_reference.

void expect_lanes_bitwise_equal(const std::vector<double>& a, const std::vector<double>& b,
                                const char* what, int tick) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]), std::bit_cast<std::uint64_t>(b[i]))
        << what << "[" << i << "] diverged at tick " << tick << ": ref=" << a[i]
        << " kernel=" << b[i];
  }
}

constexpr double kDt = 0.5;
constexpr double kSpeedLimit = 13.9;

// One lane evolved by the reference, by lane_update and by
// lane_update_vectorized side by side, each with its own copy of the
// state and of the dawdle stream.
class LaneTriple {
 public:
  LaneTriple(std::vector<double> pos, std::vector<double> speed, double road_length,
             bool is_exit, bool dawdling)
      : road_length_(road_length), is_exit_(is_exit), dawdling_(dawdling) {
    for (Side& side : sides_) {
      side.pos = pos;
      side.speed = speed;
    }
  }

  // One tick on every side, then bitwise equality of positions, speeds and
  // stream counters against the reference.
  void tick(int t) {
    const VehicleParams p;
    const std::size_t n = sides_[0].pos.size();
    lane_update_reference(sides_[0].pos.data(), sides_[0].speed.data(), n, kSpeedLimit,
                          road_length_, is_exit_, p, kDt, rng(sides_[0]));
    lane_update(sides_[1].pos.data(), sides_[1].speed.data(), n, kSpeedLimit, road_length_,
                is_exit_, p, kDt, rng(sides_[1]), scratch_);
    lane_update_vectorized(sides_[2].pos.data(), sides_[2].speed.data(), n, kSpeedLimit,
                           road_length_, is_exit_, p, kDt, rng(sides_[2]), scratch_);
    for (std::size_t k = 1; k < sides_.size(); ++k) {
      SCOPED_TRACE(k == 1 ? "lane_update" : "lane_update_vectorized");
      expect_lanes_bitwise_equal(sides_[0].pos, sides_[k].pos, "pos", t);
      expect_lanes_bitwise_equal(sides_[0].speed, sides_[k].speed, "speed", t);
      ASSERT_EQ(sides_[0].rng.counter(), sides_[k].rng.counter()) << "tick " << t;
    }
  }

  [[nodiscard]] const std::vector<double>& pos() const { return sides_[0].pos; }
  [[nodiscard]] const std::vector<double>& speed() const { return sides_[0].speed; }

 private:
  struct Side {
    std::vector<double> pos;
    std::vector<double> speed;
    StreamRng rng{2020, 17};
  };
  StreamRng* rng(Side& side) const { return dawdling_ ? &side.rng : nullptr; }

  double road_length_;
  bool is_exit_;
  bool dawdling_;
  std::array<Side, 3> sides_;
  LaneKernelScratch scratch_;
};

// A lane of n vehicles packed behind x = 250 on a 260 m road, with spacing
// from bumper-to-bumper (zero effective gap) to loose and random speeds.
LaneTriple seeded_lane(std::size_t n, bool is_exit, bool dawdling) {
  const VehicleParams p = params();
  Rng init(0xabcdef ^ n);
  std::vector<double> pos(n);
  std::vector<double> speed(n);
  double front = 250.0;
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = front;
    front -= p.length_m + init.uniform(0.0, 3.0 * p.min_gap_m);
    speed[i] = init.uniform(0.0, kSpeedLimit);
  }
  return LaneTriple(std::move(pos), std::move(speed), 260.0, is_exit, dawdling);
}

struct LaneScenario {
  const char* name;
  std::size_t n;
  bool is_exit;
  bool dawdling;
};

class LaneKernelEquality : public ::testing::TestWithParam<LaneScenario> {};

TEST_P(LaneKernelEquality, LaneUpdateMatchesScalarReferenceOverAFullApproach) {
  // Evolve the same lane through every implementation for 400 ticks and
  // demand bitwise equality (positions, speeds, RNG counters) after every
  // tick. The horizon walks each lane through every boundary regime the
  // branchless kernels rewrite: free flow (the sqrt-eliding fast-path mask),
  // the approach and capture of the stop line (head clamp every tick while
  // creeping), compression into a standing queue (zero and negative
  // effective gaps, overlap-guard clamps) and the crawl across the waiting/
  // queued speed thresholds in between.
  const LaneScenario sc = GetParam();
  LaneTriple lane = seeded_lane(sc.n, sc.is_exit, sc.dawdling);
  for (int tick = 0; tick < 400; ++tick) {
    lane.tick(tick);
    if (::testing::Test::HasFatalFailure()) return;
  }
  if (!sc.is_exit) {
    // Sanity that the scenario actually exercised the stop-line regime.
    EXPECT_DOUBLE_EQ(lane.pos()[0], 260.0 - 0.2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Lanes, LaneKernelEquality,
    ::testing::Values(LaneScenario{"head_only", 1, false, true},
                      LaneScenario{"pair", 2, false, true},
                      LaneScenario{"below_cutoff", 3, false, true},
                      LaneScenario{"simd_width", 4, false, true},
                      LaneScenario{"above_cutoff", 5, false, true},
                      LaneScenario{"odd_tail", 7, false, true},
                      LaneScenario{"platoon", 16, false, true},
                      LaneScenario{"column", 33, false, true},
                      LaneScenario{"crush", 64, false, true},
                      LaneScenario{"fused_no_dawdle", 3, false, false},
                      LaneScenario{"no_dawdle", 16, false, false},
                      LaneScenario{"fused_exit_run_off", 4, true, true},
                      LaneScenario{"exit_run_off", 8, true, true},
                      LaneScenario{"exit_no_dawdle", 5, true, false}),
    [](const ::testing::TestParamInfo<LaneScenario>& info) { return info.param.name; });

TEST(LaneKernelEquality, EveryOccupancyUpTo64MatchesOnBothSidesOfTheCutoff) {
  static_assert(kFusedLaneMax >= 1 && kFusedLaneMax < 64);
  for (std::size_t n = 1; n <= 64; ++n) {
    for (const bool is_exit : {false, true}) {
      for (const bool dawdling : {true, false}) {
        SCOPED_TRACE(::testing::Message() << n << " vehicles, exit " << is_exit
                                          << ", dawdling " << dawdling);
        LaneTriple lane = seeded_lane(n, is_exit, dawdling);
        for (int tick = 0; tick < 200; ++tick) {
          lane.tick(tick);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

class LaneClampCascade : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LaneClampCascade, HeldHeadAndStackedFollowersMatch) {
  // A head 0.3 m short of the stop line that the hold stops, and followers
  // 0.05 m (effective gap) behind their leaders, everyone at the speed
  // limit. Each follower's safe speed trusts its leader's old speed, so
  // follower 1 runs into the held head and is clamped to it, taking the
  // head's final speed 0. Followers 2-5 clear their leaders' tentative
  // positions by 5.55 m and are clamped only because their leaders were:
  // the cascade that lane_clamp and the fused pass's per-follower guard must
  // reproduce, speeds included.
  const std::size_t n = GetParam();
  const VehicleParams p = params();
  const double road_length = 200.0;
  std::vector<double> pos(n);
  const std::vector<double> speed(n, kSpeedLimit);
  pos[0] = road_length - 0.3;
  for (std::size_t i = 1; i < n; ++i) pos[i] = pos[i - 1] - p.length_m - p.min_gap_m - 0.05;
  for (const bool dawdling : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "dawdling " << dawdling);
    LaneTriple lane(pos, speed, road_length, false, dawdling);
    lane.tick(0);
    if (::testing::Test::HasFatalFailure()) return;
    if (!dawdling) {
      EXPECT_EQ(lane.pos()[0], road_length - 0.2);
      for (std::size_t i = 1; i < std::min<std::size_t>(n, 6); ++i) {
        EXPECT_EQ(lane.pos()[i], lane.pos()[i - 1] - p.length_m - 0.1) << "follower " << i;
        EXPECT_EQ(lane.speed()[i], 0.0) << "follower " << i;
      }
    }
    for (int tick = 1; tick < 100; ++tick) {
      lane.tick(tick);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Occupancies, LaneClampCascade, ::testing::Values(2, 3, 4, 5, 8));

TEST(LaneKernelEquality, EmptyLaneIsANoOpInEveryImplementation) {
  // n == 0 must touch nothing — no draws consumed, no scratch writes, no
  // reads through the (possibly null) array pointers.
  const VehicleParams p = params();
  StreamRng rng(1, 1);
  LaneKernelScratch scratch;
  lane_update_reference(nullptr, nullptr, 0, 13.9, 200.0, false, p, 0.5, &rng);
  lane_update_vectorized(nullptr, nullptr, 0, 13.9, 200.0, false, p, 0.5, &rng, scratch);
  lane_update_fused(nullptr, nullptr, 0, 13.9, 200.0, false, p, 0.5, &rng);
  lane_update(nullptr, nullptr, 0, 13.9, 200.0, false, p, 0.5, &rng, scratch);
  EXPECT_EQ(rng.counter(), 0u);
  EXPECT_TRUE(scratch.gap.empty());
}

TEST(LaneKernelEquality, ParkedHeadAndOverlappedFollowersMatch) {
  // Hand-built boundary states: a head parked exactly at the stop line, a
  // follower with exactly zero gap, one physically overlapping its leader
  // (negative gap: the safe speed must pin to 0 and the overlap guard must
  // clamp identically), and a free-flow tail straddling the sqrt fast-path
  // boundary. The first kFusedLaneMax vehicles alone take the fused pass.
  const VehicleParams p = params();
  const double road_length = 200.0;
  const std::vector<double> pos = {
      road_length - 0.2,                                   // parked at the line
      road_length - 0.2 - p.length_m - p.min_gap_m,        // exactly zero gap
      road_length - 0.2 - 2.0 * p.length_m - p.min_gap_m,  // negative gap (overlap)
      120.0, 60.0, 0.0};
  const std::vector<double> speed = {0.0, 0.3, 2.0, 13.9, 7.0, 0.0};
  for (const std::size_t n : {pos.size(), kFusedLaneMax}) {
    SCOPED_TRACE(::testing::Message() << n << " vehicles");
    LaneTriple lane(std::vector<double>(pos.begin(), pos.begin() + n),
                    std::vector<double>(speed.begin(), speed.begin() + n), road_length, false,
                    true);
    for (int tick = 0; tick < 100; ++tick) {
      lane.tick(tick);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(KraussFastPath, BitIdenticalToExactFormAcrossTheBoundary) {
  // next_speed_fast may skip the sqrt only where it provably cannot change
  // the result; sweep a dense grid of speeds, gaps and leader speeds —
  // including the free-flow region where the fast path fires and the
  // near-boundary region where it must fall through — and demand exact
  // equality. Dawdle draws exercise the subtraction path too.
  VehicleParams p;
  Rng rng(31);
  const double dt = 0.5;
  for (double speed = 0.0; speed <= 15.0; speed += 0.76) {
    for (double gap = -2.0; gap <= 60.0; gap += 0.93) {
      for (double lead = 0.0; lead <= 15.0; lead += 2.41) {
        const double r = rng.uniform01();
        const double exact = next_speed(speed, gap, lead, 13.9, p, dt, r);
        const double fast = next_speed_fast(speed, gap, lead, 13.9, p, dt, r);
        ASSERT_EQ(exact, fast) << "v=" << speed << " g=" << gap << " lv=" << lead;
      }
    }
  }
}

}  // namespace
}  // namespace abp::microsim
