// Tests for route resolution and sampling on the grid.
#include "src/traffic/route.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "src/net/grid.hpp"
#include "src/traffic/demand.hpp"
#include "tests/result_compare.hpp"

namespace abp::traffic {
namespace {

net::Network grid3() { return net::build_grid(net::GridConfig{}); }

// The links a vehicle on `route` takes from its entry road to an exit road,
// resolved one junction at a time with route_link(), as the simulators do.
std::vector<LinkId> links_of_route(const net::Network& net, const Route& route) {
  std::vector<LinkId> links;
  RoadId road = route.entry;
  while (!net.road(road).is_exit() && links.size() <= net.roads().size()) {
    links.push_back(route_link(net, route, links.size(), road));
    road = net.link(links.back()).to_road;
  }
  return links;
}

// The roads a vehicle on `route` traverses, entry road first, exit road last.
std::vector<RoadId> roads_of_route(const net::Network& net, const Route& route) {
  std::vector<RoadId> roads{route.entry};
  for (LinkId link : links_of_route(net, route)) roads.push_back(net.link(link).to_road);
  return roads;
}

// sample_route() with the entry's own side and straight path, as the demand
// generator draws it.
Route sample(const net::Network& net, RoadId entry, const TurningTable& table, Rng& rng) {
  return sample_route(entry, table.entering_from(net.road(entry).arrival_side),
                      straight_path_junctions(net, entry), rng);
}

TEST(Route, StraightPathCrossesGridDimension) {
  const net::Network net = grid3();
  // Entering from the North: the straight path crosses the 3 junctions of
  // its column; from the East: the 3 junctions of its row.
  for (RoadId entry : net.entry_roads_on(net::Side::North)) {
    EXPECT_EQ(straight_path_junctions(net, entry), 3);
  }
  for (RoadId entry : net.entry_roads_on(net::Side::East)) {
    EXPECT_EQ(straight_path_junctions(net, entry), 3);
  }
}

TEST(Route, PureStraightRouteEndsAtOppositeExit) {
  const net::Network net = grid3();
  const RoadId entry = net.entry_roads_on(net::Side::North).front();
  const std::vector<RoadId> roads = roads_of_route(net, Route{.entry = entry});
  // entry + 2 internal + exit = 4 roads.
  ASSERT_EQ(roads.size(), 4u);
  const net::Road& last = net.road(roads.back());
  EXPECT_TRUE(last.is_exit());
  // Exiting southward: the exit road leaves a bottom-row junction's South side.
  EXPECT_EQ(last.departure_side, net::Side::South);
}

TEST(Route, TurnAtEachJunctionIsLegal) {
  const net::Network net = grid3();
  for (RoadId entry : net.entry_roads()) {
    const int junctions = straight_path_junctions(net, entry);
    for (net::Turn turn : {net::Turn::Left, net::Turn::Right}) {
      for (int at = 0; at < junctions; ++at) {
        const std::vector<RoadId> roads =
            roads_of_route(net, Route{.entry = entry, .turn = turn, .turn_at = at});
        EXPECT_TRUE(net.road(roads.back()).is_exit())
            << net.road(entry).name << " turn " << net::turn_name(turn) << " at " << at;
      }
    }
  }
}

TEST(Route, TurnSequenceHasExactlyOneTurn) {
  const net::Network net = grid3();
  const RoadId entry = net.entry_roads_on(net::Side::West).front();
  const std::vector<LinkId> links =
      links_of_route(net, Route{.entry = entry, .turn = net::Turn::Left, .turn_at = 1});
  int turns = 0;
  for (LinkId link : links) {
    if (net.link(link).turn != net::Turn::Straight) ++turns;
  }
  EXPECT_EQ(turns, 1);
  ASSERT_GT(links.size(), 1u);
  EXPECT_EQ(net.link(links[1]).turn, net::Turn::Left);
}

TEST(Route, SampleRouteAlwaysLegal) {
  const net::Network net = grid3();
  const TurningTable table = TurningTable::paper();
  Rng rng(99);
  for (RoadId entry : net.entry_roads()) {
    for (int i = 0; i < 200; ++i) {
      const Route route = sample(net, entry, table, rng);
      EXPECT_EQ(route.entry, entry);
      EXPECT_TRUE(net.road(roads_of_route(net, route).back()).is_exit());
    }
  }
}

TEST(Route, SampleMatchesTableIProbabilities) {
  const net::Network net = grid3();
  const TurningTable table = TurningTable::paper();
  Rng rng(123);
  const RoadId entry = net.entry_roads_on(net::Side::North).front();
  int left = 0, right = 0, straight = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const net::Turn taken = sample(net, entry, table, rng).turn;
    (taken == net::Turn::Left ? left : taken == net::Turn::Right ? right : straight)++;
  }
  // North column of Table I: right 0.4, left 0.2, straight 0.4.
  EXPECT_NEAR(right / static_cast<double>(kN), 0.4, 0.02);
  EXPECT_NEAR(left / static_cast<double>(kN), 0.2, 0.02);
  EXPECT_NEAR(straight / static_cast<double>(kN), 0.4, 0.02);
}

TEST(Route, TurningJunctionUniformlyDistributed) {
  const net::Network net = grid3();
  const TurningTable table = TurningTable::paper();
  Rng rng(321);
  const RoadId entry = net.entry_roads_on(net::Side::South).front();
  std::map<std::size_t, int> turn_positions;
  constexpr int kN = 30000;
  for (int i = 0; i < kN; ++i) {
    const std::vector<LinkId> links = links_of_route(net, sample(net, entry, table, rng));
    for (std::size_t j = 0; j < links.size(); ++j) {
      if (net.link(links[j]).turn != net::Turn::Straight) {
        turn_positions[j]++;
        break;
      }
    }
  }
  ASSERT_EQ(turn_positions.size(), 3u);
  int total = 0;
  for (const auto& [pos, count] : turn_positions) total += count;
  for (const auto& [pos, count] : turn_positions) {
    EXPECT_NEAR(count / static_cast<double>(total), 1.0 / 3.0, 0.02) << pos;
  }
}

TEST(Route, SingleJunctionGridStillRoutes) {
  net::GridConfig cfg;
  cfg.rows = 1;
  cfg.cols = 1;
  const net::Network net = net::build_grid(cfg);
  const TurningTable table = TurningTable::paper();
  Rng rng(5);
  for (RoadId entry : net.entry_roads()) {
    EXPECT_EQ(straight_path_junctions(net, entry), 1);
    for (int i = 0; i < 50; ++i) {
      const std::vector<RoadId> roads = roads_of_route(net, sample(net, entry, table, rng));
      ASSERT_EQ(roads.size(), 2u);
      EXPECT_TRUE(net.road(roads.back()).is_exit());
    }
  }
}

// FNV-1a over the entry road and resolved link sequence of the first 2,000
// spawns of a 3x3 run at seed 1.
std::uint64_t route_digest(PatternKind pattern) {
  const net::Network net = grid3();
  DemandConfig cfg;
  cfg.pattern = pattern;
  DemandGenerator gen(net, cfg, 1);
  const std::vector<SpawnRequest> spawns = gen.poll(0.0, 3600.0);
  EXPECT_GE(spawns.size(), 2000u);
  testing::StateDigest digest;
  for (std::size_t i = 0; i < 2000 && i < spawns.size(); ++i) {
    const Route& route = spawns[i].route;
    digest.add(static_cast<std::uint64_t>(route.entry.value()));
    const std::vector<LinkId> links = links_of_route(net, route);
    for (LinkId link : links) digest.add(static_cast<std::uint64_t>(link.value()));
    digest.add(static_cast<std::uint64_t>(links.size()));
  }
  return digest.value();
}

// The values were captured when a route was its expanded per-junction turn
// vector, walked with Network::find_link: resolving each junction's movement
// on demand must take every vehicle over the same links.
TEST(Route, LinkSequencesArePinned) {
  EXPECT_EQ(route_digest(PatternKind::II), 0x89bdf3d711c35ce4ULL);
  EXPECT_EQ(route_digest(PatternKind::Mixed), 0x55c11c05bb8638d0ULL);
}

}  // namespace
}  // namespace abp::traffic
