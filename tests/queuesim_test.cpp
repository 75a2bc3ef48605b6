// Tests for the discrete-time queueing-network simulator (the Section-II
// model): conservation, capacity safety, service rates and work conservation.
#include "src/queuesim/queue_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/factory.hpp"
#include "src/net/grid.hpp"
#include "tests/result_compare.hpp"

namespace abp::queuesim {
namespace {

using testing::fold_queue_state;
using testing::StateDigest;

// Controller that always displays one fixed phase (test instrument).
class ConstantController final : public core::SignalController {
 public:
  explicit ConstantController(net::PhaseIndex phase) : phase_(phase) {}
  net::PhaseIndex decide(const core::IntersectionObservation&) override { return phase_; }
  void reset() override {}
  std::string name() const override { return "CONST"; }

 private:
  net::PhaseIndex phase_;
};

// Controller that displays `before` for the first `switch_at` decisions and
// `after` from then on (test instrument for phase-change behavior).
class ScheduledController final : public core::SignalController {
 public:
  ScheduledController(net::PhaseIndex before, net::PhaseIndex after, int switch_at)
      : before_(before), after_(after), switch_at_(switch_at) {}
  net::PhaseIndex decide(const core::IntersectionObservation&) override {
    return decisions_++ < switch_at_ ? before_ : after_;
  }
  void reset() override { decisions_ = 0; }
  std::string name() const override { return "SCHED"; }

 private:
  net::PhaseIndex before_;
  net::PhaseIndex after_;
  int switch_at_;
  int decisions_ = 0;
};

net::Network grid(int n = 1, int capacity = net::GridConfig{}.capacity) {
  net::GridConfig cfg;
  cfg.rows = n;
  cfg.cols = n;
  cfg.capacity = capacity;
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

TEST(QueueSim, VehicleConservation) {
  const net::Network net = grid(2);
  traffic::DemandGenerator demand(net, demand_cfg(), 5);
  QueueSim sim(net, QueueSimConfig{}, core::make_controllers(util_spec(), net), demand);
  const stats::RunResult r = sim.finish(1800.0);
  EXPECT_EQ(r.metrics.generated, demand.total_generated());
  EXPECT_EQ(r.metrics.completed + r.metrics.in_network_at_end, r.metrics.entered);
  EXPECT_LE(r.metrics.entered, r.metrics.generated);
  EXPECT_GT(r.metrics.completed, 0u);
}

TEST(QueueSim, AllRedServesNothing) {
  const net::Network net = grid(1);
  traffic::DemandGenerator demand(net, demand_cfg(), 5);
  QueueSim sim(net, QueueSimConfig{}, constant_controllers(net, net::kTransitionPhase),
               demand);
  const stats::RunResult r = sim.finish(600.0);
  EXPECT_EQ(r.metrics.completed, 0u);
  EXPECT_GT(r.metrics.entered, 0u);
  EXPECT_EQ(r.metrics.in_network_at_end, r.metrics.entered);
}

TEST(QueueSim, CapacityNeverExceeded) {
  // Heavy traffic into an all-red junction: entry roads must saturate at W
  // and never exceed it.
  net::GridConfig gcfg;
  gcfg.rows = 1;
  gcfg.cols = 1;
  gcfg.capacity = 25;
  const net::Network net = net::build_grid(gcfg);
  traffic::DemandConfig dcfg = demand_cfg(traffic::PatternKind::I);
  dcfg.interarrival_scale = 0.2;  // 5x heavier
  traffic::DemandGenerator demand(net, dcfg, 9);
  QueueSim sim(net, QueueSimConfig{}, constant_controllers(net, net::kTransitionPhase),
               demand);
  for (int t = 1; t <= 60; ++t) {
    sim.run_until(t * 10.0);
    for (const net::Road& road : net.roads()) {
      ASSERT_LE(sim.road_occupancy(road.id), road.capacity) << road.name;
    }
  }
  const stats::RunResult r = sim.finish(600.0);
  EXPECT_LT(r.metrics.entered, r.metrics.generated);  // some were blocked out
  EXPECT_GT(r.metrics.entry_blocked_time_s, 0.0);
}

TEST(QueueSim, ServiceRateBoundsThroughput) {
  // One junction held in the NS-through phase: each of its 4 links serves at
  // most mu = 1 veh/s, and only vehicles on those lanes move.
  const net::Network net = grid(1);
  traffic::DemandConfig dcfg = demand_cfg(traffic::PatternKind::I);
  dcfg.interarrival_scale = 0.5;
  traffic::DemandGenerator demand(net, dcfg, 3);
  QueueSim sim(net, QueueSimConfig{}, constant_controllers(net, 1), demand);
  const stats::RunResult r = sim.finish(600.0);
  // 4 links * 1 veh/s * 600 s = 2400 crossings max; every completion is one
  // junction crossing in a 1x1 grid.
  EXPECT_LE(r.metrics.completed, 2400u);
  EXPECT_GT(r.metrics.completed, 0u);
}

TEST(QueueSim, SingleVehicleTravelTimeMatchesFreeFlow) {
  // With a trickle of demand and a permanently green through phase, travel
  // time is about two free-flow traversals (entry road + exit road).
  net::GridConfig gcfg;
  gcfg.rows = 1;
  gcfg.cols = 1;
  const net::Network net = net::build_grid(gcfg);
  traffic::DemandConfig dcfg = demand_cfg(traffic::PatternKind::II);
  dcfg.interarrival_scale = 30.0;  // one vehicle per ~3 min per entry
  traffic::DemandGenerator demand(net, dcfg, 11);
  QueueSim sim(net, QueueSimConfig{}, core::make_controllers(util_spec(), net), demand);
  const stats::RunResult r = sim.finish(1800.0);
  ASSERT_GT(r.metrics.completed, 5u);
  const double free_flow = 2.0 * (220.0 / 13.9);
  EXPECT_NEAR(r.metrics.average_travel_time_s(), free_flow, free_flow * 0.5);
  // Essentially no queuing at an empty junction under UTIL-BP.
  EXPECT_LT(r.metrics.average_queuing_time_s(), 10.0);
}

TEST(QueueSim, UtilBpIsWorkConservingAtTheJunction) {
  // Property from Section IV Q2: whenever some movement has queued vehicles
  // and downstream space, UTIL-BP's junction must not sit in a control phase
  // that serves nothing (ambers excepted).
  const net::Network net = grid(1);
  traffic::DemandGenerator demand(net, demand_cfg(traffic::PatternKind::I), 17);
  QueueSim sim(net, QueueSimConfig{}, core::make_controllers(util_spec(), net), demand);
  const IntersectionId junction = net.intersections().front().id;
  int checks = 0;
  int last_violation_t = -10;
  int adjacent_violations = 0;
  for (int t = 1; t <= 900; ++t) {
    sim.run_until(static_cast<double>(t));
    const net::PhaseIndex phase = sim.displayed_phase(junction);
    if (phase == net::kTransitionPhase) continue;  // ambers are not idling
    bool any_queued_anywhere = false;
    for (const net::Link& l : net.links()) {
      if (sim.link_queue(l.id) > 0) any_queued_anywhere = true;
    }
    if (!any_queued_anywhere) continue;
    ++checks;
    bool serves_something = false;
    for (LinkId lid :
         net.intersections().front().phases[static_cast<std::size_t>(phase)].links) {
      if (sim.link_queue(lid) > 0) serves_something = true;
    }
    if (!serves_something) {
      // A single idle snapshot is the unavoidable boundary case: the phase's
      // last queued vehicle was served within the sampled mini-slot and the
      // controller reacts at the next decision instant (possibly via an
      // amber, which restarts the clock). *Sustained* idling — a control
      // phase serving nothing in two adjacent mini-slots while other
      // movements wait — would break work conservation (Section IV, Q2).
      if (t == last_violation_t + 1) ++adjacent_violations;
      last_violation_t = t;
    }
  }
  ASSERT_GT(checks, 100);
  EXPECT_EQ(adjacent_violations, 0);
}

TEST(QueueSim, ServiceCreditCapsAtOneBurstOnEmptyQueue) {
  // A movement held green over an empty queue must not bank service: without
  // the burst clamp, fifty green steps would accumulate fifty vehicles of
  // credit and discharge a later platoon far above mu. The cap is one burst,
  // max(1, mu * step): one vehicle per step at the paper's mu = 1, step = 1.
  const net::Network net = grid(1);
  traffic::DemandConfig dcfg = demand_cfg();
  dcfg.interarrival_scale = 1.0e9;  // effectively no arrivals this run
  traffic::DemandGenerator demand(net, dcfg, 5);
  QueueSim sim(net, QueueSimConfig{}, constant_controllers(net, 1), demand);
  sim.run_until(50.0);
  const net::Intersection& node = net.intersections().front();
  ASSERT_FALSE(node.phases[1].links.empty());
  for (LinkId lid : node.phases[1].links) {
    EXPECT_DOUBLE_EQ(sim.link_credit(lid), 1.0) << "link " << lid.index();
  }
  // Movements outside the displayed phase never replenish.
  for (const net::Link& l : net.links()) {
    const auto& phase_links = node.phases[1].links;
    if (std::find(phase_links.begin(), phase_links.end(), l.id) == phase_links.end()) {
      EXPECT_DOUBLE_EQ(sim.link_credit(l.id), 0.0) << "link " << l.id.index();
    }
  }
}

TEST(QueueSim, ServiceCreditBurstScalesWithStep) {
  // With a 2 s mini-slot the burst is mu * step = 2 vehicles, so an idle
  // green movement banks exactly one mini-slot's worth, never more.
  const net::Network net = grid(1);
  traffic::DemandConfig dcfg = demand_cfg();
  dcfg.interarrival_scale = 1.0e9;
  traffic::DemandGenerator demand(net, dcfg, 5);
  QueueSim sim(net, QueueSimConfig{.step_s = 2.0, .control_interval_s = 2.0},
               constant_controllers(net, 1), demand);
  sim.run_until(40.0);
  for (LinkId lid : net.intersections().front().phases[1].links) {
    EXPECT_DOUBLE_EQ(sim.link_credit(lid), 2.0) << "link " << lid.index();
  }
}

TEST(QueueSim, PhaseChangeCutsBankedCredit) {
  // Losing green forfeits banked service credit: after the controller swaps
  // phases, the links that lost green restart from zero credit while the
  // newly green links hold exactly one step's replenishment.
  const net::Network net = grid(1);
  traffic::DemandConfig dcfg = demand_cfg();
  dcfg.interarrival_scale = 1.0e9;
  traffic::DemandGenerator demand(net, dcfg, 5);
  std::vector<core::ControllerPtr> cs;
  // c1 (NS straight + easy turn) for ten decisions, then c3 (EW): the axes
  // are disjoint, so every c1 link loses green at the switch.
  cs.push_back(std::make_unique<ScheduledController>(1, 3, 10));
  QueueSim sim(net, QueueSimConfig{}, std::move(cs), demand);

  const net::Intersection& node = net.intersections().front();
  const auto& before_links = node.phases[1].links;
  const auto& after_links = node.phases[3].links;
  std::vector<LinkId> lost;  // green in c1, red in c3
  for (LinkId lid : before_links) {
    if (std::find(after_links.begin(), after_links.end(), lid) == after_links.end()) {
      lost.push_back(lid);
    }
  }
  ASSERT_FALSE(lost.empty());

  sim.run_until(10.0);  // decisions at t=0..9 all display c1
  for (LinkId lid : lost) ASSERT_DOUBLE_EQ(sim.link_credit(lid), 1.0);

  sim.run_until(11.0);  // decision at t=10 switches to c3
  ASSERT_EQ(sim.displayed_phase(node.id), 3);
  for (LinkId lid : lost) {
    EXPECT_DOUBLE_EQ(sim.link_credit(lid), 0.0) << "link " << lid.index();
  }
  // The newly green movements were cut too, then replenished once.
  for (LinkId lid : after_links) {
    EXPECT_DOUBLE_EQ(sim.link_credit(lid), 1.0) << "link " << lid.index();
  }
}

TEST(QueueSim, DeterministicReplay) {
  const net::Network net = grid(2);
  auto run_once = [&]() {
    traffic::DemandGenerator demand(net, demand_cfg(traffic::PatternKind::III), 23);
    QueueSim sim(net, QueueSimConfig{}, core::make_controllers(util_spec(), net), demand);
    return sim.finish(900.0);
  };
  const stats::RunResult a = run_once();
  const stats::RunResult b = run_once();
  EXPECT_EQ(a.metrics.completed, b.metrics.completed);
  EXPECT_DOUBLE_EQ(a.metrics.average_queuing_time_s(), b.metrics.average_queuing_time_s());
  ASSERT_EQ(a.phase_traces.size(), b.phase_traces.size());
  for (std::size_t i = 0; i < a.phase_traces.size(); ++i) {
    ASSERT_EQ(a.phase_traces[i].samples().size(), b.phase_traces[i].samples().size());
  }
}

TEST(QueueSim, WatchesProduceSeries) {
  const net::Network net = grid(1);
  traffic::DemandGenerator demand(net, demand_cfg(), 29);
  QueueSim sim(net, QueueSimConfig{}, core::make_controllers(util_spec(), net), demand);
  const RoadId east_in = net.intersections().front().incoming_on(net::Side::East);
  sim.watch_road(east_in, "east");
  const stats::RunResult r = sim.finish(600.0);
  ASSERT_EQ(r.road_series.size(), 1u);
  EXPECT_EQ(r.road_series[0].name(), "east");
  // Default sampling every 10 s.
  EXPECT_NEAR(static_cast<double>(r.road_series[0].size()), 60.0, 2.0);
}

TEST(QueueSim, PhaseTracesCoverRun) {
  const net::Network net = grid(1);
  traffic::DemandGenerator demand(net, demand_cfg(), 31);
  QueueSim sim(net, QueueSimConfig{}, core::make_controllers(util_spec(), net), demand);
  const stats::RunResult r = sim.finish(600.0);
  ASSERT_EQ(r.phase_traces.size(), 1u);
  EXPECT_FALSE(r.phase_traces[0].empty());
  EXPECT_DOUBLE_EQ(r.phase_traces[0].end_time(), 600.0);
}

TEST(QueueSim, RejectsBadConstruction) {
  const net::Network net = grid(1);
  traffic::DemandGenerator demand(net, demand_cfg(), 1);
  EXPECT_THROW(QueueSim(net, QueueSimConfig{.step_s = 0.0},
                        core::make_controllers(util_spec(), net), demand),
               std::invalid_argument);
  EXPECT_THROW(QueueSim(net, QueueSimConfig{.step_s = 2.0, .control_interval_s = 1.0},
                        core::make_controllers(util_spec(), net), demand),
               std::invalid_argument);
  EXPECT_THROW(QueueSim(net, QueueSimConfig{}, {}, demand), std::invalid_argument);
  EXPECT_THROW(QueueSim(net::Network{}, QueueSimConfig{},
                        core::make_controllers(util_spec(), net), demand),
               std::invalid_argument);
}

TEST(QueueSim, RejectsOutOfRangePhase) {
  // A decision outside the junction's phase list is a controller bug; the
  // control step refuses it instead of indexing past the phases.
  const net::Network net = grid(1);
  for (const net::PhaseIndex bad : {net::PhaseIndex{-1}, net::PhaseIndex{99}}) {
    traffic::DemandGenerator demand(net, demand_cfg(), 1);
    QueueSim sim(net, QueueSimConfig{}, constant_controllers(net, bad), demand);
    EXPECT_THROW(sim.run_until(5.0), std::logic_error) << "phase " << bad;
  }
}

TEST(QueueSim, MidRunStateDigestIsPinned) {
  // Beyond the golden metric pins: after every tick of a 300 s 2x2 run, the
  // full observable state is folded into one digest. A rewrite of the tick
  // must reproduce the pinned value, so it is checked tick by tick, not only
  // at the end of the run.
  const net::Network net = grid(2);
  traffic::DemandGenerator demand(net, demand_cfg(traffic::PatternKind::I), 41);
  QueueSim sim(net, QueueSimConfig{}, core::make_controllers(util_spec(), net), demand);
  StateDigest digest;
  for (int t = 1; t <= 300; ++t) {
    sim.run_until(static_cast<double>(t));
    fold_queue_state(digest, sim, net);
  }
  EXPECT_EQ(digest.value(), 0x6f5df96ce511294eULL) << std::hex << digest.value();
}

// fold_queue_state after every tick, plus the closing metrics and phase
// traces.
std::uint64_t run_digest(const net::Network& net, const traffic::DemandConfig& demand_config,
                         double duration_s, bool allow_idle_skip) {
  traffic::DemandGenerator demand(net, demand_config, 17);
  std::vector<core::ControllerPtr> controllers = core::make_controllers(util_spec(), net);
  if (!allow_idle_skip) {
    for (core::ControllerPtr& c : controllers) {
      c = std::make_unique<testing::NeverSkippedController>(std::move(c));
    }
  }
  QueueSim sim(net, QueueSimConfig{}, std::move(controllers), demand);
  StateDigest digest;
  for (int t = 1; t <= static_cast<int>(duration_s); ++t) {
    sim.run_until(static_cast<double>(t));
    fold_queue_state(digest, sim, net);
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

// Skipping the decision of an idle junction (no vehicle queued on its
// approach roads, no outgoing road at its design capacity, UTIL-BP holding)
// must be invisible: tick-by-tick state and traces equal those of a run
// that decides every junction at every control step. The 2x2 cases run
// roads of one and two vehicles under thinned pattern I demand, so an
// outgoing road is often full while the approaches are empty — where
// Eq. (8)'s beta sentinel can make UTIL-BP leave its phase, so the skip must
// not apply. The W = 6 and W = 10 cases bind capacity under heavier demand.
TEST(QueueSim, IdleDecisionSkipIsInvisible) {
  struct Case {
    int size;
    int capacity;
    traffic::PatternKind pattern;
    double interarrival_scale;
  };
  for (const Case& c : {Case{2, 1, traffic::PatternKind::I, 10.0},
                        Case{2, 2, traffic::PatternKind::I, 3.0},
                        Case{3, 6, traffic::PatternKind::III, 1.0},
                        Case{4, 120, traffic::PatternKind::I, 1.0},
                        Case{3, 10, traffic::PatternKind::II, 1.0}}) {
    SCOPED_TRACE(::testing::Message() << c.size << "x" << c.size << ", capacity "
                                      << c.capacity << ", interarrival scale "
                                      << c.interarrival_scale);
    const net::Network net = grid(c.size, c.capacity);
    const traffic::DemandConfig demand = demand_cfg(c.pattern, c.interarrival_scale);
    EXPECT_EQ(run_digest(net, demand, 900.0, true), run_digest(net, demand, 900.0, false));
  }
}

TEST(QueueSim, FinishIsTerminal) {
  const net::Network net = grid(1);
  traffic::DemandGenerator demand(net, demand_cfg(), 1);
  QueueSim sim(net, QueueSimConfig{}, core::make_controllers(util_spec(), net), demand);
  sim.finish(60.0);
  EXPECT_THROW(sim.run_until(120.0), std::logic_error);
}

}  // namespace
}  // namespace abp::queuesim
