// Tests for the extension features beyond the paper's core setup:
// mixed lanes with head-of-line blocking (Section IV Q4's future work),
// pressure-mapping presets (Eq. 4 generality), stability instrumentation
// (Section IV Q1), and routing through incomplete junctions.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/factory.hpp"
#include "src/core/gain.hpp"
#include "src/microsim/micro_sim.hpp"
#include "src/net/grid.hpp"
#include "src/net/validation.hpp"
#include "src/scenario/scenario.hpp"
#include "src/traffic/route.hpp"

namespace abp {
namespace {

class ConstantController final : public core::SignalController {
 public:
  explicit ConstantController(net::PhaseIndex phase) : phase_(phase) {}
  net::PhaseIndex decide(const core::IntersectionObservation&) override { return phase_; }
  void reset() override {}
  std::string name() const override { return "CONST"; }

 private:
  net::PhaseIndex phase_;
};

net::Network grid1() {
  net::GridConfig cfg;
  cfg.rows = 1;
  cfg.cols = 1;
  return net::build_grid(cfg);
}

// --- Mixed lanes -----------------------------------------------------------

TEST(MixedLanes, SingleLanePerRoad) {
  const net::Network net = grid1();
  traffic::DemandConfig dcfg;
  traffic::DemandGenerator demand(net, dcfg, 3);
  microsim::MicroSimConfig cfg;
  cfg.dedicated_turn_lanes = false;
  std::vector<core::ControllerPtr> cs;
  cs.push_back(std::make_unique<ConstantController>(1));
  microsim::MicroSim sim(net, cfg, std::move(cs), demand, 5);
  sim.run_until(300.0);
  // All three movements of an approach report queues out of one shared lane:
  // the per-movement counts partition the lane population.
  const net::Intersection& j = net.intersections().front();
  const RoadId north_in = j.incoming_on(net::Side::North);
  int partition_total = 0;
  for (LinkId lid : net.links_from(north_in)) {
    partition_total += sim.lane_count(lid);
  }
  EXPECT_EQ(partition_total, sim.road_occupancy(north_in));
}

TEST(MixedLanes, HeadOfLineBlockingHappens) {
  // Hold the NS-through phase. On the mixed north lane, a right-turner
  // (crossing movement, red in phase 1) at the head blocks the green
  // straights behind it — throughput collapses versus dedicated lanes.
  const net::Network net = grid1();
  auto run_with_lanes = [&](bool dedicated) {
    traffic::DemandConfig dcfg;
    dcfg.pattern = traffic::PatternKind::I;
    traffic::DemandGenerator demand(net, dcfg, 7);
    microsim::MicroSimConfig cfg;
    cfg.dedicated_turn_lanes = dedicated;
    std::vector<core::ControllerPtr> cs;
    cs.push_back(std::make_unique<ConstantController>(1));
    microsim::MicroSim sim(net, cfg, std::move(cs), demand, 9);
    return sim.finish(900.0).metrics.completed;
  };
  const std::size_t dedicated = run_with_lanes(true);
  const std::size_t mixed = run_with_lanes(false);
  // A held phase cannot serve a crossing-turn head, and such a head arrives
  // within a few vehicles — the approach then blocks for good. Throughput
  // must collapse relative to dedicated lanes (possibly all the way to 0 if
  // the very first heads are crossing-turners).
  EXPECT_LT(mixed, dedicated / 2) << "expected severe HOL blocking on mixed lanes";
  EXPECT_GT(dedicated, 100u);
}

TEST(MixedLanes, ConservationAndNoOverlaps) {
  const net::Network net = grid1();
  traffic::DemandConfig dcfg;
  traffic::DemandGenerator demand(net, dcfg, 11);
  microsim::MicroSimConfig cfg;
  cfg.dedicated_turn_lanes = false;
  core::ControllerSpec spec;
  spec.type = core::ControllerType::UtilBp;
  microsim::MicroSim sim(net, cfg, core::make_controllers(spec, net), demand, 13);
  for (int t = 1; t <= 30; ++t) {
    sim.run_until(t * 20.0);
    ASSERT_TRUE(sim.no_overlaps());
  }
  const stats::RunResult r = sim.finish(600.0);
  EXPECT_EQ(r.metrics.completed + r.metrics.in_network_at_end, r.metrics.entered);
  EXPECT_GT(r.metrics.completed, 0u);
}

TEST(MixedLanes, UtilBpStillControlsTheJunction) {
  // UTIL-BP on mixed lanes must still move traffic (the paper's algorithm
  // family is defined for dedicated lanes; the sensing layer adapts).
  const net::Network net = grid1();
  traffic::DemandConfig dcfg;
  traffic::DemandGenerator demand(net, dcfg, 17);
  microsim::MicroSimConfig cfg;
  cfg.dedicated_turn_lanes = false;
  core::ControllerSpec spec;
  spec.type = core::ControllerType::UtilBp;
  microsim::MicroSim sim(net, cfg, core::make_controllers(spec, net), demand, 19);
  const stats::RunResult r = sim.finish(900.0);
  // HOL blocking caps mixed-lane throughput far below the dedicated-lane
  // level; worse, the dedicated-lane gain (Eq. 8) still sees pressure from
  // vehicles stuck *behind* an unservable head, so the keep-rule holds
  // phases long past usefulness. The adaptive policy still moves some
  // traffic and does change phases — unlike the held-phase case, which
  // deadlocks outright. (Designing an HOL-aware gain is the paper's stated
  // future work, Section IV Q4.)
  EXPECT_GT(r.metrics.completed, 5u);
  EXPECT_GE(r.phase_traces[0].transition_count(), 1);
}

// --- Pressure presets --------------------------------------------------------

TEST(PressurePresets, ValuesMatchDefinitions) {
  EXPECT_DOUBLE_EQ(core::pressure({}, 7.0), 7.0);
  const core::Pressure root(core::PressureKind::Sqrt, 120.0);
  EXPECT_DOUBLE_EQ(core::pressure(root, 16.0), 4.0);
  EXPECT_DOUBLE_EQ(core::pressure(root, -4.0), 0.0);
  const core::Pressure quad(core::PressureKind::Quadratic, 120.0);
  EXPECT_DOUBLE_EQ(core::pressure(quad, 5.0), 25.0);
  const core::Pressure norm(core::PressureKind::Normalized, 120.0);
  EXPECT_DOUBLE_EQ(core::pressure(norm, 60.0), 0.5);
}

TEST(PressurePresets, NormalizedNeedsCapacity) {
  EXPECT_THROW(core::Pressure(core::PressureKind::Normalized, 0.0), std::invalid_argument);
  // The check runs when a controller is built.
  core::ControllerSpec spec;
  spec.util.pressure_kind = core::PressureKind::Normalized;
  const core::IntersectionPlan plan{.num_links = 1, .phases = {{}, {0}}};
  EXPECT_THROW((void)core::make_controller(spec, plan, 0.0), std::invalid_argument);
}

TEST(PressurePresets, NamesAreDistinct) {
  std::set<std::string> names;
  for (core::PressureKind k :
       {core::PressureKind::Identity, core::PressureKind::Sqrt,
        core::PressureKind::Quadratic, core::PressureKind::Normalized}) {
    names.insert(core::pressure_kind_name(k));
  }
  EXPECT_EQ(names.size(), 4u);
}

TEST(PressurePresets, AllAreNonDecreasing) {
  // Eq. (4) requires a non-decreasing mapping; verify over a sample grid.
  for (core::PressureKind k : {core::PressureKind::Sqrt, core::PressureKind::Quadratic,
                               core::PressureKind::Normalized}) {
    const core::Pressure p(k, 120.0);
    double prev = core::pressure(p, 0.0);
    for (double q = 1.0; q <= 120.0; q += 1.0) {
      const double b = core::pressure(p, q);
      ASSERT_GE(b, prev) << core::pressure_kind_name(k) << " at q=" << q;
      prev = b;
    }
  }
}

TEST(PressurePresets, UtilBpRunsWithEveryPreset) {
  for (core::PressureKind k :
       {core::PressureKind::Identity, core::PressureKind::Sqrt,
        core::PressureKind::Quadratic, core::PressureKind::Normalized}) {
    scenario::ScenarioConfig cfg =
        scenario::paper_scenario(traffic::PatternKind::II, core::ControllerType::UtilBp);
    cfg.duration_s = 300.0;
    cfg.seed = 5;
    cfg.controller.util.pressure_kind = k;
    const stats::RunResult r = scenario::run_scenario(cfg);
    EXPECT_GT(r.metrics.completed, 0u) << core::pressure_kind_name(k);
  }
}

// --- Stability instrumentation ----------------------------------------------

TEST(Stability, InNetworkSeriesBoundedUnderLightLoad) {
  scenario::ScenarioConfig cfg =
      scenario::paper_scenario(traffic::PatternKind::II, core::ControllerType::UtilBp);
  cfg.duration_s = 1800.0;
  cfg.seed = 21;
  cfg.demand.interarrival_scale = 2.0;  // light
  const stats::RunResult r = scenario::run_scenario(cfg);
  ASSERT_GT(r.in_network_series.size(), 100u);
  // Bounded: the second-half maximum does not keep growing over the first
  // half's maximum by more than 50%.
  double first_half = 0.0, second_half = 0.0;
  const auto& times = r.in_network_series.times();
  const auto& values = r.in_network_series.values();
  for (std::size_t i = 0; i < times.size(); ++i) {
    (times[i] < 900.0 ? first_half : second_half) =
        std::max(times[i] < 900.0 ? first_half : second_half, values[i]);
  }
  EXPECT_LT(second_half, 1.5 * std::max(first_half, 20.0));
}

TEST(Stability, InNetworkSeriesGrowsUnderOverload) {
  scenario::ScenarioConfig cfg =
      scenario::paper_scenario(traffic::PatternKind::I, core::ControllerType::UtilBp);
  cfg.duration_s = 1800.0;
  cfg.seed = 23;
  cfg.demand.interarrival_scale = 0.3;  // far beyond capacity
  const stats::RunResult r = scenario::run_scenario(cfg);
  const auto& values = r.in_network_series.values();
  ASSERT_GT(values.size(), 100u);
  // Monotone growth trend: the last decile mean well above the first decile.
  const std::size_t decile = values.size() / 10;
  double head = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < decile; ++i) {
    head += values[i];
    tail += values[values.size() - 1 - i];
  }
  EXPECT_GT(tail, 3.0 * std::max(head, 1.0));
}

TEST(Stability, QueueSimProducesSeriesToo) {
  scenario::ScenarioConfig cfg =
      scenario::paper_scenario(traffic::PatternKind::II, core::ControllerType::UtilBp);
  cfg.simulator = scenario::SimulatorKind::Queue;
  cfg.duration_s = 600.0;
  const stats::RunResult r = scenario::run_scenario(cfg);
  EXPECT_GT(r.in_network_series.size(), 30u);
  EXPECT_GT(r.in_network_series.max(), 0.0);
}

// --- Routing through incomplete junctions ------------------------------------

net::Network t_corridor() {
  // A -- B where B lacks a southern arm (see examples/custom_network.cpp).
  net::Network network;
  const IntersectionId b = network.add_intersection("B");
  auto boundary_road = [&](net::Side side, bool entry, const char* name) {
    net::Road r;
    if (entry) {
      r.to = b;
      r.arrival_side = side;
    } else {
      r.from = b;
      r.departure_side = side;
    }
    r.length_m = 200.0;
    r.capacity = 40;
    r.name = name;
    return network.add_road(r);
  };
  for (net::Side side : {net::Side::North, net::Side::East, net::Side::West}) {
    boundary_road(side, true, "in");
    boundary_road(side, false, "out");
  }
  network.finalize(net::Handedness::LeftHand);
  return network;
}

// The roads a vehicle on `route` traverses, entry road first, resolved one
// junction at a time with route_link() as the simulators do.
std::vector<RoadId> roads_of_route(const net::Network& net, const traffic::Route& route) {
  std::vector<RoadId> roads{route.entry};
  while (!net.road(roads.back()).is_exit() && roads.size() <= net.roads().size()) {
    const LinkId link = traffic::route_link(net, route, roads.size() - 1, roads.back());
    roads.push_back(net.link(link).to_road);
  }
  return roads;
}

TEST(RouteFallback, StraightRouteBendsAtTJunction) {
  const net::Network net = t_corridor();
  net::validate_or_throw(net);
  const net::Intersection& b = net.intersections().front();
  const RoadId north_in = b.incoming_on(net::Side::North);
  // A "straight" route from the North would exit South, which does not
  // exist; the router must bend instead of throwing, taking the first
  // fallback that exists (straight, left, right): left.
  const traffic::Route route{.entry = north_in};
  EXPECT_EQ(net.link(traffic::route_link(net, route, 0, north_in)).turn, net::Turn::Left);
  const std::vector<RoadId> roads = roads_of_route(net, route);
  ASSERT_EQ(roads.size(), 2u);
  EXPECT_TRUE(net.road(roads.back()).is_exit());
}

TEST(RouteFallback, SampledRoutesAlwaysTerminate) {
  const net::Network net = t_corridor();
  const traffic::TurningTable table = traffic::TurningTable::paper();
  Rng rng(31);
  for (RoadId entry : net.entry_roads()) {
    for (int i = 0; i < 100; ++i) {
      const traffic::Route route = traffic::sample_route(
          entry, table.entering_from(net.road(entry).arrival_side),
          traffic::straight_path_junctions(net, entry), rng);
      EXPECT_TRUE(net.road(roads_of_route(net, route).back()).is_exit());
    }
  }
}

}  // namespace
}  // namespace abp
