// Discrete-time queueing-network simulator: the paper's Section II model,
// implemented exactly.
//
// Every road N_i is a queueing node with capacity W_i. Vehicles arriving on a
// road drive for its free-flow time (modeled as a constant transfer delay) and
// then join the dedicated per-movement queue q_i^{i'} of the movement their
// route takes there (traffic::route_link). While a movement's link is green,
// it serves its queue at rate mu_i^{i'} (Eq. 2's S term), bounded by the
// downstream road's remaining capacity. Served vehicles transfer to the
// downstream road; vehicles served into an exit road leave the network when
// they reach its far end.
//
// This simulator is the formal model the controllers were designed against:
// it is used by the property tests (work conservation, stability, capacity
// safety) and by the model-level cross-check bench; the microscopic simulator
// (src/microsim) is the SUMO substitute used for the headline experiments.
//
// --- Tick (see docs/PERFORMANCE.md) ---
// The run loop — clock, control step, watches, the vehicle ledger and
// finish() — is sim::RunCore's (src/sim/run_core.hpp), shared with the micro
// sim; QueueSim supplies the tick and the hooks. At a control boundary
// RunCore's control step observes and decides at every junction except an
// idle one before its controller's hold: one with no vehicle queued on an
// approach road and no road its links enter at design capacity. The
// readings are exact, so a skipped decision would have kept the phase, the
// service credit and the trace. The tick is one serial pass: demand is
// admitted (batched: one DemandGenerator::poll_into per tick into a reused
// buffer; spawns wait in one FIFO per entry road), then every green movement
// is served in ascending link id, which net::Network::finalize guarantees is
// the (intersection, phase-link) order, each served vehicle moving straight
// into the downstream road's transit FIFO. Due transits are then drained in
// road order, routing arrivals into their movement queues and completing
// vehicles that reach the end of an exit road. A vehicle's queuing time is
// one step per tick it spends in a movement queue; it is counted per stay
// (the tick it joins the queue, the tick it is served) rather than by
// visiting every queued vehicle each tick.
// All stochastic draws (arrival times, route sampling) happen at admission on
// per-entry-road streams, so fixed-seed runs are bit-reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/controller.hpp"
#include "src/net/network.hpp"
#include "src/sim/run_core.hpp"
#include "src/stats/run_result.hpp"
#include "src/traffic/demand.hpp"
#include "src/util/vec_queue.hpp"

namespace abp::queuesim {

struct QueueSimConfig {
  // Mini-slot Delta-t: one service/arrival update per step.
  double step_s = 1.0;
  // Controllers are invoked every control_interval_s (>= step_s).
  double control_interval_s = 1.0;
  // Interval between samples pushed to registered road watches.
  double sample_interval_s = 10.0;
};

// A vehicle's record in the ledger: sim::VehicleBase plus its queue stays.
struct Vehicle : sim::VehicleBase {
  // Ticks spent in movement queues by closed stays, and the tick the open
  // stay began (meaningful only while the vehicle is queued).
  std::uint64_t queued_ticks = 0;
  std::uint64_t stay_start = 0;
};

class QueueSim : public sim::RunCore<QueueSim, Vehicle> {
 public:
  // `network` and `demand` must outlive the simulator; `controllers` holds
  // the controller of each intersection, indexed by IntersectionId::index().
  QueueSim(const net::Network& network, QueueSimConfig config,
           std::vector<core::ControllerPtr> controllers, traffic::DemandGenerator& demand);

  // Vehicles currently queued for a movement (test hook).
  [[nodiscard]] int link_queue(LinkId link) const {
    return static_cast<int>(links_[link.index()].queue.size());
  }
  // All vehicles currently on a road: in transit + queued (test hook).
  [[nodiscard]] int road_occupancy(RoadId road) const { return roads_[road.index()].occupancy; }
  // Fractional service credit currently banked by a movement (test hook for
  // the burst clamp and the green-loss credit cut).
  [[nodiscard]] double link_credit(LinkId link) const;
  // Vehicles queued at the stop line of `road`, over all its movements
  // (q_i of Eq. 1; O(1), maintained incrementally). Also a test hook.
  [[nodiscard]] int queued_on_road(RoadId road) const { return road_queued_[road.index()]; }

 private:
  friend class sim::RunCore<QueueSim, Vehicle>;

  // --- RunCore hooks ---
  void tick();
  // The readings are the exact counts. An exit road never holds a queued
  // vehicle, so its congestion reading is 0.
  [[nodiscard]] int link_reading(LinkId link) const { return link_queue(link); }
  [[nodiscard]] int approach_reading(RoadId road) const { return queued_on_road(road); }
  [[nodiscard]] int congestion_reading(RoadId road) const { return queued_on_road(road); }
  // No vehicle queued on an approach road of junction j, so every link's
  // queue reading is 0, and no road a link of j enters at its design W.
  [[nodiscard]] bool idle(std::size_t j) const {
    for (LinkId lid : net_.intersections()[j].links) {
      const LinkObs& link = link_obs_[lid.index()];
      if (queued_on_road(link.from_road) != 0 ||
          road_occupancy(link.to_road) >= link.downstream_capacity) {
        return false;
      }
    }
    return true;
  }
  // A phase change cuts the service credit of the junction's links.
  void phase_changed(std::size_t junction);
  [[nodiscard]] int watch_reading(RoadId road) const { return queued_on_road(road); }
  // Every vehicle still queued has queued through the last tick.
  void close_stays();
  // Seconds of the vehicle's queued ticks K: K additions of step_s from 0.0,
  // the sum a tick-by-tick accrual builds (K * step_s rounds differently
  // when step_s is not a binary fraction). Memoized, grown on demand.
  [[nodiscard]] double queue_seconds(const Vehicle& v);

  struct TransitEntry {
    double arrive_time = 0.0;
    VehicleId vehicle;
  };

  struct RoadState {
    // Vehicles driving toward the stop line (constant free-flow delay), FIFO.
    VecQueue<TransitEntry> transit;
    // Occupancy counter: transit + all link queues.
    int occupancy = 0;
    // Exit road: a due transit completes instead of joining a queue.
    bool exit = false;
  };

  struct LinkQueueState {
    VecQueue<VehicleId> queue;
    // Fractional service credit; replenished while green, capped at one burst.
    double credit = 0.0;
  };

  // Static per-link service inputs, flattened once at construction so
  // arbitrate_and_serve() reads one row per link instead of chasing the
  // network's links and roads.
  struct LinkRow {
    std::uint32_t from_road = 0;
    std::uint32_t to_road = 0;
    double rate_dt = 0.0;         // mu * step_s: credit gained per green tick
    double burst = 0.0;           // max(1, rate_dt): the credit cap
    double to_free_flow_s = 0.0;  // free-flow time of to_road
  };

  void admit_spawns();
  // Service phase, run before the tick advances now_: replenishes each green
  // movement's credit (capped at one burst), then serves while credit, queue
  // and downstream capacity allow, in ascending link id, pushing each served
  // vehicle into the downstream transit FIFO stamped with now_ plus the
  // road's free-flow time.
  void arbitrate_and_serve();
  // Pops the due transits of every road whose FIFO is non-empty, in road
  // order: arrivals join their movement queue, and on an exit road the
  // vehicle completes. A road whose front transit is not yet due costs one
  // test of its front-due time.
  void drain_due_transits();
  // Appends a vehicle to a road's transit FIFO; a push onto an empty FIFO
  // marks the road and sets its front-due time.
  void push_transit(std::size_t road, double arrive_time, VehicleId vid) {
    RoadState& state = roads_[road];
    if (state.transit.empty()) {
      transit_roads_[road / 64] |= std::uint64_t{1} << (road % 64);
      transit_due_[road] = arrive_time;
    }
    state.transit.push_back({arrive_time, vid});
  }
  void route_vehicle_into_queue(VehicleId vid, RoadId road);

  QueueSimConfig config_;
  // Ticks completed; the queuing-time clock of every stay.
  std::uint64_t tick_ = 0;

  std::vector<RoadState> roads_;
  std::vector<LinkQueueState> links_;
  std::vector<LinkRow> link_rows_;
  // Per-road bitmap: the road's transit FIFO is non-empty. Set at a push onto
  // an empty FIFO (admission, service), cleared by the drain when it empties
  // the FIFO.
  std::vector<std::uint64_t> transit_roads_;
  // Per road with a non-empty transit FIFO, the arrival time of its front
  // vehicle: set at a push onto an empty FIFO and after each drain of the
  // road. Arrival stamps are now_ plus the road's free-flow time, so they
  // never decrease along a FIFO and the front is the earliest.
  std::vector<double> transit_due_;
  // queue_seconds() memo: entry k is k additions of step_s from 0.0.
  std::vector<double> queued_seconds_{0.0};
  // Vehicles queued at the stop line of each road (sum over its movement
  // queues), maintained incrementally so a reading is O(1).
  std::vector<int> road_queued_;
};

}  // namespace abp::queuesim
