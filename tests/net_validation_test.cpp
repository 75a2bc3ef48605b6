// Tests for structural network validation.
#include "src/net/validation.hpp"

#include <gtest/gtest.h>

#include "src/net/grid.hpp"

namespace abp::net {
namespace {

Network valid_grid() { return build_grid(GridConfig{}); }

TEST(Validation, CleanGridHasNoFindings) {
  const Network net = valid_grid();
  EXPECT_TRUE(validate(net).empty());
  EXPECT_NO_THROW(validate_or_throw(net));
}

TEST(Validation, UnfinalizedNetworkFlagged) {
  Network net;
  net.add_intersection("J");
  const auto problems = validate(net);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("not finalized"), std::string::npos);
}

TEST(Validation, DetectsCorruptedServiceRate) {
  Network net = valid_grid();
  net.link_mut(LinkId(0)).service_rate = -1.0;
  const auto problems = validate(net);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("service rate"), std::string::npos);
}

TEST(Validation, DetectsCorruptedCapacity) {
  Network net = valid_grid();
  net.road_mut(RoadId(0)).capacity = 0;
  const auto problems = validate(net);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("capacity"), std::string::npos);
}

TEST(Validation, DetectsBrokenTurnGeometry) {
  Network net = valid_grid();
  // Point a link at a road that contradicts its turn.
  Link& l = net.link_mut(LinkId(0));
  const Turn original = l.turn;
  l.turn = static_cast<Turn>((static_cast<int>(original) + 1) % 3);
  const auto problems = validate(net);
  EXPECT_FALSE(problems.empty());
}

TEST(Validation, ThrowListsAllProblems) {
  Network net = valid_grid();
  net.link_mut(LinkId(0)).service_rate = -1.0;
  net.road_mut(RoadId(0)).capacity = 0;
  try {
    validate_or_throw(net);
    FAIL() << "expected validation to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("service rate"), std::string::npos);
    EXPECT_NE(msg.find("capacity"), std::string::npos);
  }
}

TEST(Validation, ApproachWithNoMovementIsAFinding) {
  // north_in's only way out is a U-turn onto north_out, which is no
  // movement: a vehicle entering there could never leave. east_in turns
  // onto north_out, so the junction is otherwise well formed.
  Network net;
  const IntersectionId j = net.add_intersection("J");
  auto road = [&](const char* name, Side side, bool incoming) {
    Road r;
    r.name = name;
    r.length_m = 200.0;
    r.capacity = 40;
    if (incoming) {
      r.to = j;
      r.arrival_side = side;
    } else {
      r.from = j;
      r.departure_side = side;
    }
    net.add_road(r);
  };
  road("north_in", Side::North, true);
  road("north_out", Side::North, false);
  road("east_in", Side::East, true);
  net.finalize(Handedness::LeftHand);
  const auto problems = validate(net);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_EQ(problems[0], "road north_in: no movement leaves it at J");
  EXPECT_THROW(validate_or_throw(net), std::runtime_error);
}

}  // namespace
}  // namespace abp::net
