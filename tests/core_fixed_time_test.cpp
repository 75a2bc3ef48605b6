// Tests for the fixed-time (pre-timed) controller.
#include "src/core/fixed_time.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace abp::core {
namespace {

IntersectionPlan four_phase_plan() {
  IntersectionPlan plan;
  plan.num_links = 12;
  plan.phases = {{}, {0, 1, 2, 3}, {4, 5}, {6, 7, 8, 9}, {10, 11}};
  return plan;
}

IntersectionObservation obs_at(double time) {
  IntersectionObservation obs;
  obs.time = time;
  obs.links.resize(12);
  return obs;
}

TEST(FixedTime, RejectsBadConfig) {
  EXPECT_THROW(FixedTimeController(four_phase_plan(), {.green_duration_s = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(FixedTimeController(four_phase_plan(),
                                   {.green_duration_s = 10.0, .amber_duration_s = -1.0}),
               std::invalid_argument);
  IntersectionPlan empty;
  empty.phases = {{}};
  EXPECT_THROW(FixedTimeController(empty, FixedTimeConfig{}), std::invalid_argument);
}

TEST(FixedTime, CyclesThroughAllPhasesInOrder) {
  FixedTimeConfig cfg{.green_duration_s = 10.0, .amber_duration_s = 4.0};
  FixedTimeController c(four_phase_plan(), cfg);
  // Slot layout: [0,4) amber, [4,14) phase1, [14,18) amber, [18,28) phase2...
  EXPECT_EQ(c.decide(obs_at(0.0)), net::kTransitionPhase);
  EXPECT_EQ(c.decide(obs_at(4.0)), 1);
  EXPECT_EQ(c.decide(obs_at(13.9)), 1);
  EXPECT_EQ(c.decide(obs_at(14.0)), net::kTransitionPhase);
  EXPECT_EQ(c.decide(obs_at(18.0)), 2);
  EXPECT_EQ(c.decide(obs_at(32.0)), 3);
  EXPECT_EQ(c.decide(obs_at(46.0)), 4);
  // Full cycle = 4 * 14 s = 56 s; wraps back to amber then phase 1.
  EXPECT_EQ(c.decide(obs_at(56.0)), net::kTransitionPhase);
  EXPECT_EQ(c.decide(obs_at(60.0)), 1);
}

TEST(FixedTime, ZeroAmberNeverShowsTransition) {
  FixedTimeConfig cfg{.green_duration_s = 5.0, .amber_duration_s = 0.0};
  FixedTimeController c(four_phase_plan(), cfg);
  for (double t = 0.0; t < 100.0; t += 0.5) {
    EXPECT_NE(c.decide(obs_at(t)), net::kTransitionPhase) << t;
  }
}

TEST(FixedTime, CycleAnchorsAtFirstDecision) {
  FixedTimeConfig cfg{.green_duration_s = 10.0, .amber_duration_s = 4.0};
  FixedTimeController c(four_phase_plan(), cfg);
  // First call at t=100: the cycle starts there, not at t=0.
  EXPECT_EQ(c.decide(obs_at(100.0)), net::kTransitionPhase);
  EXPECT_EQ(c.decide(obs_at(104.0)), 1);
}

TEST(FixedTime, ResetReanchors) {
  FixedTimeConfig cfg{.green_duration_s = 10.0, .amber_duration_s = 4.0};
  FixedTimeController c(four_phase_plan(), cfg);
  (void)c.decide(obs_at(0.0));
  c.reset();
  EXPECT_EQ(c.decide(obs_at(7.0)), net::kTransitionPhase);
  EXPECT_EQ(c.decide(obs_at(11.0)), 1);
}

TEST(FixedTime, EachPhaseGetsEqualGreenTime) {
  FixedTimeConfig cfg{.green_duration_s = 15.0, .amber_duration_s = 4.0};
  FixedTimeController c(four_phase_plan(), cfg);
  std::array<double, 5> time_in_phase{};
  const double dt = 0.25;
  for (double t = 0.0; t < 4.0 * 19.0 * 10.0; t += dt) {
    time_in_phase[static_cast<std::size_t>(c.decide(obs_at(t)))] += dt;
  }
  for (int p = 1; p <= 4; ++p) {
    EXPECT_NEAR(time_in_phase[static_cast<std::size_t>(p)], 150.0, 1.0) << p;
  }
  EXPECT_NEAR(time_in_phase[0], 160.0, 1.0);  // 4 ambers per cycle, 10 cycles
}

TEST(FixedTime, NameIsStable) {
  FixedTimeController c(four_phase_plan(), FixedTimeConfig{});
  EXPECT_EQ(c.name(), "FIXED-TIME");
}

}  // namespace
}  // namespace abp::core
