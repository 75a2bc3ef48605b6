// Tests for the microscopic simulator: signals, service, capacity, metrics.
#include "src/microsim/micro_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <random>
#include <tuple>

#include "src/core/factory.hpp"
#include "src/microsim/lane_store.hpp"
#include "src/net/grid.hpp"
#include "tests/result_compare.hpp"

namespace abp::microsim {
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

net::Network grid(int n = 1, int capacity = 120,
                  double road_length_m = net::GridConfig{}.road_length_m) {
  net::GridConfig cfg;
  cfg.rows = n;
  cfg.cols = n;
  cfg.capacity = capacity;
  cfg.road_length_m = road_length_m;
  cfg.boundary_length_m = road_length_m;
  return net::build_grid(cfg);
}

std::vector<core::ControllerPtr> constant_controllers(const net::Network& net,
                                                      net::PhaseIndex phase) {
  std::vector<core::ControllerPtr> cs;
  for (std::size_t i = 0; i < net.intersections().size(); ++i) {
    cs.push_back(std::make_unique<ConstantController>(phase));
  }
  return cs;
}

core::ControllerSpec util_spec() {
  core::ControllerSpec spec;
  spec.type = core::ControllerType::UtilBp;
  return spec;
}

traffic::DemandConfig demand_cfg(traffic::PatternKind p = traffic::PatternKind::II,
                                 double scale = 1.0) {
  traffic::DemandConfig cfg;
  cfg.pattern = p;
  cfg.interarrival_scale = scale;
  return cfg;
}

TEST(MicroSim, VehicleConservation) {
  const net::Network net = grid(2);
  traffic::DemandGenerator demand(net, demand_cfg(), 5);
  MicroSim sim(net, MicroSimConfig{}, core::make_controllers(util_spec(), net), demand, 1);
  const stats::RunResult r = sim.finish(1200.0);
  EXPECT_EQ(r.metrics.generated, demand.total_generated());
  EXPECT_EQ(r.metrics.completed + r.metrics.in_network_at_end, r.metrics.entered);
  EXPECT_GT(r.metrics.completed, 0u);
}

TEST(MicroSim, RedLightStopsEverything) {
  const net::Network net = grid(1);
  traffic::DemandGenerator demand(net, demand_cfg(), 7);
  MicroSim sim(net, MicroSimConfig{}, constant_controllers(net, net::kTransitionPhase),
               demand, 2);
  const stats::RunResult r = sim.finish(600.0);
  EXPECT_EQ(r.metrics.completed, 0u);
  EXPECT_GT(r.metrics.entered, 0u);
  // Everyone who entered piles up behind the stop lines.
  EXPECT_EQ(r.metrics.in_network_at_end, r.metrics.entered);
  EXPECT_GT(r.metrics.average_queuing_time_s(), 50.0);
}

TEST(MicroSim, GreenPhaseOnlyServesItsMovements) {
  // Hold the NS-through phase: vehicles entering from the East that want to
  // go straight can never cross; north straights flow freely.
  const net::Network net = grid(1);
  traffic::DemandGenerator demand(net, demand_cfg(traffic::PatternKind::II, 0.7), 11);
  MicroSim sim(net, MicroSimConfig{}, constant_controllers(net, 1), demand, 3);
  sim.run_until(900.0);
  const net::Intersection& j = net.intersections().front();
  const RoadId east_in = j.incoming_on(net::Side::East);
  const RoadId north_in = j.incoming_on(net::Side::North);
  const auto east_straight = net.find_link(east_in, net::Turn::Straight);
  const auto north_straight = net.find_link(north_in, net::Turn::Straight);
  ASSERT_TRUE(east_straight && north_straight);
  // East straight lane backs up; north straight lane stays short.
  EXPECT_GT(sim.lane_count(*east_straight), 10);
  EXPECT_LT(sim.lane_count(*north_straight), 10);
}

TEST(MicroSim, NoOverlapsThroughoutRun) {
  const net::Network net = grid(2);
  traffic::DemandGenerator demand(net, demand_cfg(traffic::PatternKind::I), 13);
  MicroSim sim(net, MicroSimConfig{}, core::make_controllers(util_spec(), net), demand, 5);
  for (int t = 1; t <= 60; ++t) {
    sim.run_until(t * 10.0);
    ASSERT_TRUE(sim.no_overlaps()) << "overlap at t=" << t * 10;
  }
}

TEST(MicroSim, LanePositionsStayOnRoad) {
  const net::Network net = grid(1);
  traffic::DemandGenerator demand(net, demand_cfg(traffic::PatternKind::I, 0.5), 17);
  MicroSim sim(net, MicroSimConfig{}, constant_controllers(net, net::kTransitionPhase),
               demand, 7);
  sim.run_until(300.0);
  for (const net::Link& l : net.links()) {
    for (double pos : sim.lane_positions(l.id)) {
      ASSERT_GE(pos, 0.0);
      ASSERT_LE(pos, net.road(l.from_road).length_m);
    }
  }
}

TEST(MicroSim, CapacityNeverExceeded) {
  const net::Network net = grid(1, /*capacity=*/20);
  traffic::DemandGenerator demand(net, demand_cfg(traffic::PatternKind::I, 0.3), 19);
  MicroSim sim(net, MicroSimConfig{}, constant_controllers(net, net::kTransitionPhase),
               demand, 9);
  for (int t = 1; t <= 60; ++t) {
    sim.run_until(t * 10.0);
    for (const net::Road& road : net.roads()) {
      ASSERT_LE(sim.road_occupancy(road.id), road.capacity) << road.name;
    }
  }
  const stats::RunResult r = sim.finish(600.0);
  EXPECT_GT(r.metrics.entry_blocked_time_s, 0.0);
  EXPECT_LT(r.metrics.entered, r.metrics.generated);
}

TEST(MicroSim, ServiceRateCapsDischarge) {
  // A permanently green through phase serves at most ~mu per link; with the
  // default mu = 1 veh/s, 4 links, 600 s -> at most ~2400 crossings, and in
  // a 1x1 grid every completion crossed once.
  const net::Network net = grid(1);
  traffic::DemandConfig heavy = demand_cfg(traffic::PatternKind::I, 0.25);
  traffic::DemandGenerator demand(net, heavy, 23);
  MicroSim sim(net, MicroSimConfig{}, constant_controllers(net, 1), demand, 11);
  const stats::RunResult r = sim.finish(600.0);
  EXPECT_LE(r.metrics.completed, 2400u);
}

TEST(MicroSim, LowServiceRateHalvesDischarge) {
  net::GridConfig gcfg;
  gcfg.rows = 1;
  gcfg.cols = 1;
  gcfg.service_rate = 0.25;
  const net::Network net = net::build_grid(gcfg);
  traffic::DemandGenerator demand(net, demand_cfg(traffic::PatternKind::I, 0.25), 23);
  MicroSim sim(net, MicroSimConfig{}, constant_controllers(net, 1), demand, 11);
  const stats::RunResult r = sim.finish(600.0);
  // 4 links * 0.25 veh/s * 600 s = 600 crossings max.
  EXPECT_LE(r.metrics.completed, 600u);
  EXPECT_GT(r.metrics.completed, 200u);
}

TEST(MicroSim, FreeFlowTravelTimeReasonable) {
  // Nearly empty network with an adaptive controller: travel time close to
  // the 2-road free-flow time plus junction crossing.
  const net::Network net = grid(1);
  traffic::DemandGenerator demand(net, demand_cfg(traffic::PatternKind::II, 20.0), 29);
  MicroSim sim(net, MicroSimConfig{}, core::make_controllers(util_spec(), net), demand, 13);
  const stats::RunResult r = sim.finish(1800.0);
  ASSERT_GT(r.metrics.completed, 5u);
  const double free_flow = 2.0 * (220.0 / 13.9) + 2.0;
  EXPECT_LT(r.metrics.average_travel_time_s(), free_flow * 2.0);
  EXPECT_GT(r.metrics.average_travel_time_s(), free_flow * 0.8);
}

TEST(MicroSim, DeterministicReplay) {
  const net::Network net = grid(2);
  auto run_once = [&]() {
    traffic::DemandGenerator demand(net, demand_cfg(traffic::PatternKind::III), 31);
    MicroSim sim(net, MicroSimConfig{}, core::make_controllers(util_spec(), net), demand, 15);
    return sim.finish(600.0);
  };
  const stats::RunResult a = run_once();
  const stats::RunResult b = run_once();
  EXPECT_EQ(a.metrics.completed, b.metrics.completed);
  EXPECT_DOUBLE_EQ(a.metrics.average_queuing_time_s(), b.metrics.average_queuing_time_s());
}

TEST(MicroSim, SeedChangesOutcome) {
  const net::Network net = grid(1);
  auto run_with_seed = [&](std::uint64_t seed) {
    traffic::DemandGenerator demand(net, demand_cfg(), seed);
    MicroSim sim(net, MicroSimConfig{}, core::make_controllers(util_spec(), net), demand,
                 seed + 1);
    return sim.finish(600.0).metrics.completed;
  };
  EXPECT_NE(run_with_seed(1), run_with_seed(99));
}

TEST(MicroSim, WatchesAndTracesProduced) {
  const net::Network net = grid(1);
  traffic::DemandGenerator demand(net, demand_cfg(), 37);
  MicroSim sim(net, MicroSimConfig{}, core::make_controllers(util_spec(), net), demand, 17);
  sim.watch_road(net.intersections().front().incoming_on(net::Side::East), "east");
  const stats::RunResult r = sim.finish(600.0);
  ASSERT_EQ(r.road_series.size(), 1u);
  EXPECT_GT(r.road_series[0].size(), 50u);
  ASSERT_EQ(r.phase_traces.size(), 1u);
  EXPECT_GT(r.phase_traces[0].samples().size(), 1u);
}

TEST(MicroSim, AmberClearsJunctionBeforeNewPhase) {
  // With UTIL-BP, whenever the displayed phase changes between two control
  // phases, a transition display must appear in between.
  const net::Network net = grid(1);
  traffic::DemandGenerator demand(net, demand_cfg(traffic::PatternKind::I), 41);
  MicroSim sim(net, MicroSimConfig{}, core::make_controllers(util_spec(), net), demand, 19);
  const stats::RunResult r = sim.finish(900.0);
  const auto& samples = r.phase_traces[0].samples();
  for (std::size_t i = 1; i < samples.size(); ++i) {
    if (samples[i - 1].phase != net::kTransitionPhase &&
        samples[i].phase != net::kTransitionPhase) {
      ADD_FAILURE() << "direct phase change " << samples[i - 1].phase << " -> "
                    << samples[i].phase << " at t=" << samples[i].time;
    }
  }
}

TEST(MicroSim, RejectsBadConstruction) {
  const net::Network net = grid(1);
  traffic::DemandGenerator demand(net, demand_cfg(), 1);
  EXPECT_THROW(MicroSim(net, MicroSimConfig{.dt_s = 0.0},
                        core::make_controllers(util_spec(), net), demand, 1),
               std::invalid_argument);
  EXPECT_THROW(MicroSim(net, MicroSimConfig{.dt_s = 2.0, .control_interval_s = 1.0},
                        core::make_controllers(util_spec(), net), demand, 1),
               std::invalid_argument);
  EXPECT_THROW(MicroSim(net, MicroSimConfig{}, {}, demand, 1), std::invalid_argument);
  EXPECT_THROW(MicroSim(net::Network{}, MicroSimConfig{},
                        core::make_controllers(util_spec(), net), demand, 1),
               std::invalid_argument);
}

TEST(MicroSim, RejectsOutOfRangePhase) {
  // A decision outside the junction's phase list is a controller bug; the
  // control step refuses it instead of indexing past the phases.
  const net::Network net = grid(1);
  for (const net::PhaseIndex bad : {net::PhaseIndex{-1}, net::PhaseIndex{99}}) {
    traffic::DemandGenerator demand(net, demand_cfg(), 1);
    MicroSim sim(net, MicroSimConfig{}, constant_controllers(net, bad), demand, 1);
    EXPECT_THROW(sim.run_until(5.0), std::logic_error) << "phase " << bad;
  }
}

TEST(MicroSim, FinishIsTerminal) {
  const net::Network net = grid(1);
  traffic::DemandGenerator demand(net, demand_cfg(), 1);
  MicroSim sim(net, MicroSimConfig{}, core::make_controllers(util_spec(), net), demand, 1);
  sim.finish(60.0);
  EXPECT_THROW(sim.run_until(120.0), std::logic_error);
}

// FNV-1a over every tick's displayed phases, road occupancies, lane counts
// and lane positions, plus the closing metrics.
std::uint64_t run_digest(const net::Network& net, const traffic::DemandConfig& demand_config,
                         const MicroSimConfig& config, double duration_s,
                         bool allow_idle_skip) {
  traffic::DemandGenerator demand(net, demand_config, 17);
  std::vector<core::ControllerPtr> controllers = core::make_controllers(util_spec(), net);
  if (!allow_idle_skip) {
    for (core::ControllerPtr& c : controllers) {
      c = std::make_unique<testing::NeverSkippedController>(std::move(c));
    }
  }
  MicroSim sim(net, config, std::move(controllers), demand, 3);
  testing::StateDigest digest;
  for (int t = 1; t * 0.5 <= duration_s; ++t) {
    sim.run_until(t * 0.5);
    for (const net::Intersection& node : net.intersections()) {
      digest.add(sim.displayed_phase(node.id));
    }
    for (const net::Road& road : net.roads()) digest.add(sim.road_occupancy(road.id));
    for (const net::Link& link : net.links()) {
      for (double p : sim.lane_positions(link.id)) digest.add(p);
    }
  }
  const stats::RunResult r = sim.finish(duration_s);
  digest.add(static_cast<std::uint64_t>(r.metrics.completed));
  digest.add(r.metrics.queuing_time_s.mean());
  for (const stats::PhaseTrace& trace : r.phase_traces) {
    for (const stats::PhaseTrace::Sample& sample : trace.samples()) {
      digest.add(sample.time);
      digest.add(sample.phase);
    }
    digest.add(trace.end_time());
  }
  return digest.value();
}

// Skipping the decision of an idle junction (perfect sensor, no vehicle on
// its approach lanes, no full outgoing road, UTIL-BP holding) must be
// invisible: tick-by-tick state and traces equal those of a run that decides
// every junction at every control step. The first case uses one-vehicle
// roads under a tenth of pattern I's demand, so an outgoing road is often
// full while the approaches are empty — where Eq. (8)'s beta sentinel can
// make UTIL-BP leave its phase, so the skip must not apply. The mixed-lane
// case counts a junction's queue readings from one shared lane per road, and
// the 20 m case runs roads shorter than the stop-line service zone, where a
// vehicle pushed onto an empty lane can be served before the sweep moves it.
TEST(MicroSim, IdleDecisionSkipIsInvisible) {
  struct Case {
    int size;
    int capacity;
    traffic::PatternKind pattern;
    double interarrival_scale;
    bool dedicated_turn_lanes = true;
    double road_length_m = 220.0;
  };
  for (const Case& c : {Case{2, 1, traffic::PatternKind::I, 10.0},
                        Case{3, 6, traffic::PatternKind::III, 1.0},
                        Case{4, 120, traffic::PatternKind::I, 1.0},
                        Case{3, 120, traffic::PatternKind::II, 1.0, false},
                        Case{3, 120, traffic::PatternKind::I, 1.0, true, 20.0}}) {
    SCOPED_TRACE(::testing::Message() << c.size << "x" << c.size << ", capacity "
                                      << c.capacity << ", dedicated "
                                      << c.dedicated_turn_lanes << ", roads "
                                      << c.road_length_m << " m");
    const net::Network net = grid(c.size, c.capacity, c.road_length_m);
    const traffic::DemandConfig demand = demand_cfg(c.pattern, c.interarrival_scale);
    MicroSimConfig config;
    config.dedicated_turn_lanes = c.dedicated_turn_lanes;
    EXPECT_EQ(run_digest(net, demand, config, 900.0, true),
              run_digest(net, demand, config, 900.0, false));
  }
}

// --- The lane block against a std::deque model ------------------------------

// Drives a LaneStore and a deque of (id, pos, speed, waiting) side by side and
// compares them after every operation: the size, every slot, head first.
class LaneStoreModel {
 public:
  void push() {
    const bool was_empty = store_.empty();
    const double x = static_cast<double>(next_id_);
    const VehicleId id(next_id_++);
    store_.push(id, x + 0.25, x + 0.5, x + 0.75);
    model_.emplace_back(id, x + 0.25, x + 0.5, x + 0.75);
    // A lane that emptied starts over at slot 0.
    if (was_empty) {
      EXPECT_EQ(store_.head(), 0u);
    }
    peak_ = std::max(peak_, store_.size());
    check();
  }
  void pop() {
    store_.pop_head();
    model_.pop_front();
    check();
  }
  [[nodiscard]] const LaneStore& store() const { return store_; }

 private:
  void check() const {
    ASSERT_EQ(store_.size(), model_.size());
    EXPECT_EQ(store_.empty(), model_.empty());
    for (std::size_t i = 0; i < model_.size(); ++i) {
      const auto& [id, pos, speed, waiting] = model_[i];
      EXPECT_EQ(store_.ids()[i], id) << "slot " << i;
      EXPECT_EQ(store_.pos()[i], pos) << "slot " << i;
      EXPECT_EQ(store_.speed()[i], speed) << "slot " << i;
      EXPECT_EQ(store_.waiting()[i], waiting) << "slot " << i;
    }
    EXPECT_LE(store_.head() + store_.size(), store_.capacity());
    // The bound lane_store.hpp states: the block only grows when at least
    // half its slots are live.
    EXPECT_LE(store_.capacity(), std::max<std::uint32_t>(4, 4 * peak_));
  }

  LaneStore store_;
  std::deque<std::tuple<VehicleId, double, double, double>> model_;
  std::uint32_t peak_ = 0;
  VehicleId::value_type next_id_ = 0;
};

TEST(LaneStore, SeededPushPopSequencesMatchADeque) {
  for (std::uint32_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937 gen(seed);
    LaneStoreModel lane;
    // Alternate filling and draining phases so the lane grows, shrinks, and
    // empties out completely along the way.
    for (int phase = 0; phase < 12; ++phase) {
      std::bernoulli_distribution push_next(phase % 2 == 0 ? 0.7 : 0.3);
      for (int op = 0; op < 200; ++op) {
        if (lane.store().empty() || push_next(gen)) {
          lane.push();
        } else {
          lane.pop();
        }
      }
    }
    while (!lane.store().empty()) lane.pop();
    lane.push();
  }
}

TEST(LaneStore, SteadyOccupancyKeepsTheBlockBounded) {
  for (int occupancy = 1; occupancy <= 64; ++occupancy) {
    SCOPED_TRACE(occupancy);
    LaneStoreModel lane;
    for (int i = 0; i < occupancy; ++i) lane.push();
    for (int i = 0; i < 300; ++i) {
      lane.push();
      lane.pop();
    }
    while (!lane.store().empty()) lane.pop();
    lane.push();
  }
}

TEST(LaneStore, GrowsAndCompactsWhileTheHeadIsAdvanced) {
  LaneStoreModel lane;
  for (int i = 0; i < 4; ++i) lane.push();
  ASSERT_EQ(lane.store().capacity(), 4u);
  lane.pop();
  ASSERT_EQ(lane.store().head(), 1u);
  // Full at the tail with 3 of 4 slots live: doubles, live slots to slot 0.
  lane.push();
  EXPECT_EQ(lane.store().capacity(), 8u);
  EXPECT_EQ(lane.store().head(), 0u);
  for (int i = 0; i < 4; ++i) lane.push();
  for (int i = 0; i < 6; ++i) lane.pop();
  ASSERT_EQ(lane.store().head(), 6u);
  ASSERT_EQ(lane.store().size(), 2u);
  // Full at the tail with 2 of 8 slots live: compacts in place.
  lane.push();
  EXPECT_EQ(lane.store().capacity(), 8u);
  EXPECT_EQ(lane.store().head(), 0u);
}

}  // namespace
}  // namespace abp::microsim
