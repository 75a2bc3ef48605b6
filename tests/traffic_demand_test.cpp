// Tests for the Poisson demand generator.
#include "src/traffic/demand.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/net/grid.hpp"

namespace abp::traffic {
namespace {

net::Network grid3() { return net::build_grid(net::GridConfig{}); }

TEST(Demand, SpawnsAreTimeOrderedAndInWindow) {
  const net::Network net = grid3();
  DemandConfig cfg;
  cfg.pattern = PatternKind::II;
  DemandGenerator gen(net, cfg, 1);
  const auto spawns = gen.poll(0.0, 120.0);
  ASSERT_FALSE(spawns.empty());
  double prev = 0.0;
  for (const SpawnRequest& s : spawns) {
    EXPECT_GE(s.time, prev);
    EXPECT_LT(s.time, 120.0);
    EXPECT_TRUE(s.route.entry.valid());
    prev = s.time;
  }
}

TEST(Demand, RateMatchesTableII) {
  // Pattern II: every entry road sees one vehicle per 6 s on average;
  // 12 entries over 2 h => about 14400 vehicles.
  const net::Network net = grid3();
  DemandConfig cfg;
  cfg.pattern = PatternKind::II;
  DemandGenerator gen(net, cfg, 7);
  const auto spawns = gen.poll(0.0, 7200.0);
  const double expected = 12.0 * 7200.0 / 6.0;
  EXPECT_NEAR(static_cast<double>(spawns.size()), expected, 0.05 * expected);
}

TEST(Demand, PatternIIsHeavierFromTheNorth) {
  const net::Network net = grid3();
  DemandConfig cfg;
  cfg.pattern = PatternKind::I;
  DemandGenerator gen(net, cfg, 13);
  std::array<int, 4> by_side{};
  for (const SpawnRequest& s : gen.poll(0.0, 7200.0)) {
    by_side[static_cast<std::size_t>(net.road(s.route.entry).arrival_side)]++;
  }
  const double north = by_side[0], east = by_side[1], south = by_side[2], west = by_side[3];
  // Ratios follow 1/3 : 1/5 : 1/7 : 1/9 per road.
  EXPECT_NEAR(north / east, 5.0 / 3.0, 0.25);
  EXPECT_NEAR(north / south, 7.0 / 3.0, 0.35);
  EXPECT_NEAR(north / west, 9.0 / 3.0, 0.45);
}

TEST(Demand, ScaleLightensTraffic) {
  const net::Network net = grid3();
  DemandConfig heavy;
  heavy.pattern = PatternKind::II;
  DemandConfig light = heavy;
  light.interarrival_scale = 2.0;
  DemandGenerator a(net, heavy, 3);
  DemandGenerator b(net, light, 3);
  const auto heavy_spawns = a.poll(0.0, 3600.0);
  const auto light_spawns = b.poll(0.0, 3600.0);
  EXPECT_NEAR(static_cast<double>(heavy_spawns.size()) / light_spawns.size(), 2.0, 0.2);
}

TEST(Demand, MixedPatternShiftsRateAcrossHours) {
  const net::Network net = grid3();
  DemandConfig cfg;
  cfg.pattern = PatternKind::Mixed;
  DemandGenerator gen(net, cfg, 11);
  // Hour 1 is Pattern I (per-road rates 1/3..1/9); hour 4 is Pattern IV
  // (north 1/3, the rest 1/9): hour 1 must carry more vehicles.
  const auto h1 = gen.poll(0.0, 3600.0);
  (void)gen.poll(3600.0, 3.0 * 3600.0);  // skip hours 2-3
  const auto h4 = gen.poll(3.0 * 3600.0, 4.0 * 3600.0);
  EXPECT_GT(h1.size(), h4.size() + 500);
}

TEST(Demand, DifferentSeedsDiffer) {
  const net::Network net = grid3();
  DemandConfig cfg;
  DemandGenerator a(net, cfg, 1);
  DemandGenerator b(net, cfg, 2);
  const auto sa = a.poll(0.0, 600.0);
  const auto sb = b.poll(0.0, 600.0);
  bool different = sa.size() != sb.size();
  for (std::size_t i = 0; !different && i < sa.size(); ++i) {
    different = sa[i].time != sb[i].time;
  }
  EXPECT_TRUE(different);
}

TEST(Demand, ConsecutivePollsDoNotDuplicate) {
  const net::Network net = grid3();
  DemandConfig cfg;
  DemandGenerator gen(net, cfg, 21);
  const auto a = gen.poll(0.0, 300.0);
  const auto b = gen.poll(300.0, 600.0);
  DemandGenerator whole(net, cfg, 21);
  const auto all = whole.poll(0.0, 600.0);
  ASSERT_EQ(a.size() + b.size(), all.size());
  EXPECT_EQ(gen.total_generated(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpawnRequest& s = i < a.size() ? a[i] : b[i - a.size()];
    EXPECT_EQ(s.time, all[i].time) << "spawn " << i;
    EXPECT_EQ(s.route, all[i].route) << "spawn " << i;
  }
}

TEST(Demand, ExponentialInterArrivalVariance) {
  // Poisson process: inter-arrival CV should be ~1 (not constant spacing).
  const net::Network net = grid3();
  DemandConfig cfg;
  cfg.pattern = PatternKind::II;
  DemandGenerator gen(net, cfg, 31);
  std::vector<double> per_road_times;
  const RoadId first_entry = net.entry_roads().front();
  for (const SpawnRequest& s : gen.poll(0.0, 36000.0)) {
    if (s.route.entry == first_entry) per_road_times.push_back(s.time);
  }
  ASSERT_GT(per_road_times.size(), 1000u);
  double mean = 0.0, var = 0.0;
  std::vector<double> gaps;
  for (std::size_t i = 1; i < per_road_times.size(); ++i) {
    gaps.push_back(per_road_times[i] - per_road_times[i - 1]);
  }
  for (double g : gaps) mean += g;
  mean /= static_cast<double>(gaps.size());
  for (double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size() - 1);
  EXPECT_NEAR(mean, 6.0, 0.4);
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.1);
}

}  // namespace
}  // namespace abp::traffic
