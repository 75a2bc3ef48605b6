// Tests for network construction and wiring.
#include "src/net/network.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "src/net/grid.hpp"

namespace abp::net {
namespace {

// One junction with an entry road from the North and an exit road to the
// South: the smallest network with a single straight movement.
Network single_link_network() {
  Network net;
  const IntersectionId j = net.add_intersection("J");
  Road in;
  in.to = j;
  in.arrival_side = Side::North;
  in.name = "in";
  net.add_road(in);
  Road out;
  out.from = j;
  out.departure_side = Side::South;
  out.name = "out";
  net.add_road(out);
  net.finalize(Handedness::LeftHand);
  return net;
}

TEST(Network, SingleLinkWiring) {
  const Network net = single_link_network();
  ASSERT_EQ(net.intersections().size(), 1u);
  ASSERT_EQ(net.roads().size(), 2u);
  ASSERT_EQ(net.links().size(), 1u);

  const Intersection& j = net.intersections().front();
  EXPECT_TRUE(j.incoming_on(Side::North).valid());
  EXPECT_TRUE(j.outgoing_on(Side::South).valid());
  EXPECT_FALSE(j.incoming_on(Side::East).valid());

  const Link& l = net.links().front();
  EXPECT_EQ(l.turn, Turn::Straight);
  EXPECT_EQ(l.from_side, Side::North);
  EXPECT_EQ(l.owner, j.id);
}

TEST(Network, SingleLinkPhases) {
  const Network net = single_link_network();
  const Intersection& j = net.intersections().front();
  // Transition phase plus exactly one non-empty control phase (NS-through).
  ASSERT_EQ(j.phases.size(), 2u);
  EXPECT_TRUE(j.phases[0].is_transition());
  EXPECT_EQ(j.phases[1].links.size(), 1u);
  EXPECT_EQ(j.num_control_phases(), 1);
}

TEST(Network, EntryAndExitClassification) {
  const Network net = single_link_network();
  const auto entries = net.entry_roads();
  const auto exits = net.exit_roads();
  ASSERT_EQ(entries.size(), 1u);
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_EQ(net.road(entries[0]).name, "in");
  EXPECT_EQ(net.road(exits[0]).name, "out");
  EXPECT_TRUE(net.road(entries[0]).is_entry());
  EXPECT_TRUE(net.road(exits[0]).is_exit());
}

TEST(Network, FindLink) {
  const Network net = single_link_network();
  const RoadId in = net.entry_roads().front();
  EXPECT_TRUE(net.find_link(in, Turn::Straight).has_value());
  EXPECT_FALSE(net.find_link(in, Turn::Left).has_value());
  EXPECT_EQ(net.links_from(in).size(), 1u);
}

TEST(Network, RejectsRoadTouchingNoJunction) {
  Network net;
  Road floating;
  floating.name = "floating";
  EXPECT_THROW(net.add_road(floating), std::invalid_argument);
}

TEST(Network, RejectsNonPositiveGeometry) {
  Network net;
  const IntersectionId j = net.add_intersection("J");
  Road r;
  r.to = j;
  r.length_m = -1.0;
  EXPECT_THROW(net.add_road(r), std::invalid_argument);
  r.length_m = 100.0;
  r.capacity = 0;
  EXPECT_THROW(net.add_road(r), std::invalid_argument);
  r.capacity = 10;
  r.speed_limit_mps = 0.0;
  EXPECT_THROW(net.add_road(r), std::invalid_argument);
}

TEST(Network, RejectsDuplicateApproach) {
  Network net;
  const IntersectionId j = net.add_intersection("J");
  Road a;
  a.to = j;
  a.arrival_side = Side::North;
  net.add_road(a);
  Road b;
  b.to = j;
  b.arrival_side = Side::North;
  net.add_road(b);
  EXPECT_THROW(net.finalize(Handedness::LeftHand), std::logic_error);
}

TEST(Network, RejectsDoubleFinalize) {
  Network net = single_link_network();
  EXPECT_THROW(net.finalize(Handedness::LeftHand), std::logic_error);
}

TEST(Network, RejectsMutationAfterFinalize) {
  Network net = single_link_network();
  EXPECT_THROW(net.add_intersection("late"), std::logic_error);
  Road r;
  r.to = IntersectionId(0);
  EXPECT_THROW(net.add_road(r), std::logic_error);
}

TEST(Network, RejectsNonPositiveServiceRate) {
  Network net;
  net.add_intersection("J");
  EXPECT_THROW(net.finalize(Handedness::LeftHand, 0.0), std::invalid_argument);
}

TEST(Network, FourApproachJunctionHasTwelveLinks) {
  Network net;
  const IntersectionId j = net.add_intersection("J");
  for (Side s : kAllSides) {
    Road in;
    in.to = j;
    in.arrival_side = s;
    net.add_road(in);
    Road out;
    out.from = j;
    out.departure_side = s;
    net.add_road(out);
  }
  net.finalize(Handedness::LeftHand);
  EXPECT_EQ(net.links().size(), 12u);
  const Intersection& node = net.intersections().front();
  // Fig. 1: four control phases plus the transition phase.
  ASSERT_EQ(node.phases.size(), 5u);
  EXPECT_EQ(node.phases[1].links.size(), 4u);  // NS straight + easy
  EXPECT_EQ(node.phases[2].links.size(), 2u);  // NS protected
  EXPECT_EQ(node.phases[3].links.size(), 4u);  // EW straight + easy
  EXPECT_EQ(node.phases[4].links.size(), 2u);  // EW protected
}

TEST(Network, TJunctionSkipsEmptyPhases) {
  // T-junction: approaches from North, South and East only, no West arm.
  Network net;
  const IntersectionId j = net.add_intersection("T");
  for (Side s : {Side::North, Side::South, Side::East}) {
    Road in;
    in.to = j;
    in.arrival_side = s;
    net.add_road(in);
    Road out;
    out.from = j;
    out.departure_side = s;
    net.add_road(out);
  }
  net.finalize(Handedness::LeftHand);
  const Intersection& node = net.intersections().front();
  for (std::size_t p = 1; p < node.phases.size(); ++p) {
    EXPECT_FALSE(node.phases[p].links.empty());
  }
  // N->W, S->W, E->W movements do not exist; link count is 12 - 3 = ...
  // each approach loses the movement toward the missing West arm, and the
  // West approach's own three movements are gone too.
  EXPECT_EQ(net.links().size(), 6u);
}

TEST(Network, ServiceRateAppliedToAllLinks) {
  Network net;
  const IntersectionId j = net.add_intersection("J");
  Road in;
  in.to = j;
  in.arrival_side = Side::North;
  net.add_road(in);
  Road out;
  out.from = j;
  out.departure_side = Side::South;
  net.add_road(out);
  net.finalize(Handedness::LeftHand, 0.25);
  EXPECT_DOUBLE_EQ(net.links().front().service_rate, 0.25);
}

// The micro sim's stop-line service walks green links in ascending id and
// relies on that being the (junction, phase-link) order: each junction's
// links are one contiguous ascending run of ids, the runs ascend with the
// junction index, and every phase lists its links in ascending order.
TEST(Network, LinkIdsAscendByJunctionAndWithinEveryPhase) {
  for (const auto& [rows, cols] : {std::pair{1, 1}, std::pair{3, 3}, std::pair{2, 5}}) {
    SCOPED_TRACE(::testing::Message() << rows << "x" << cols);
    GridConfig config;
    config.rows = rows;
    config.cols = cols;
    const Network net = build_grid(config);
    std::size_t next = 0;
    for (const Intersection& node : net.intersections()) {
      ASSERT_FALSE(node.links.empty()) << node.name;
      EXPECT_EQ(node.links.front().index(), next) << node.name;
      for (std::size_t k = 0; k < node.links.size(); ++k) {
        EXPECT_EQ(node.links[k].index(), next + k) << node.name;
        EXPECT_EQ(net.link(node.links[k]).owner, node.id) << node.name;
      }
      next += node.links.size();
      for (const Phase& phase : node.phases) {
        for (std::size_t k = 1; k < phase.links.size(); ++k) {
          EXPECT_LT(phase.links[k - 1].index(), phase.links[k].index())
              << node.name << " " << phase.name;
        }
      }
    }
    EXPECT_EQ(next, net.links().size());
  }
}

}  // namespace
}  // namespace abp::net
