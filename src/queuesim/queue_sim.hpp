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
// One serial pass per tick: the controllers decide, demand is admitted
// (batched: one DemandGenerator::poll_into per tick into a reused buffer),
// then every green movement is served in ascending link id, which
// net::Network::finalize guarantees is the (intersection, phase-link) order,
// each served vehicle moving straight into the downstream road's transit
// FIFO. Due transits are then drained in road order, routing arrivals into
// their movement queues and completing vehicles that reach the end of an
// exit road. A vehicle's queuing time is one step per tick it spends in a
// movement queue; it is counted per stay (the tick it joins the queue, the
// tick it is served) rather than by visiting every queued vehicle each tick.
// All stochastic draws (arrival times, route sampling) happen at admission on
// per-entry-road streams, so fixed-seed runs are bit-reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/controller.hpp"
#include "src/net/network.hpp"
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

class QueueSim {
 public:
  // All referees must outlive the simulator. `controllers` holds one
  // controller per intersection, indexed by IntersectionId::index().
  QueueSim(const net::Network& network, QueueSimConfig config,
           std::vector<core::ControllerPtr> controllers, traffic::DemandGenerator& demand);

  // Registers a queue-length watch on a road: the series samples the total
  // number of vehicles queued at the stop line of `road` (q_i of Eq. 1).
  void watch_road(RoadId road, std::string series_name);

  // Advances the simulation to `until_s` and returns the result. May be
  // called repeatedly with increasing horizons.
  stats::RunResult& run_until(double until_s);

  // Runs from the current time to `duration_s`, closes all per-vehicle
  // records, and returns the final result.
  stats::RunResult finish(double duration_s);

  [[nodiscard]] double now() const noexcept { return now_; }

  // Capacity-override hook for incident injection (sim adapter): caps
  // admission and service *into* the road from now on. Vehicles already on
  // the road drain normally; occupancy above the new value blocks inflow
  // until it has drained, so occupancy never exceeds the design W.
  // Observations keep reporting the design capacity — controllers know the
  // road geometry, not the incident. Called only between ticks.
  void set_road_capacity(RoadId road, int capacity);
  [[nodiscard]] int road_capacity(RoadId road) const {
    return road_capacity_[road.index()];
  }

  // Vehicles currently queued for a movement (test hook).
  [[nodiscard]] int link_queue(LinkId link) const;
  // All vehicles currently on a road: in transit + queued (test hook).
  [[nodiscard]] int road_occupancy(RoadId road) const;
  // Phase currently displayed at a junction (test hook).
  [[nodiscard]] net::PhaseIndex displayed_phase(IntersectionId node) const;
  // Total vehicles inside the network right now (test hook).
  [[nodiscard]] int vehicles_in_network() const;
  // Fractional service credit currently banked by a movement (test hook for
  // the burst clamp and the green-loss credit cut).
  [[nodiscard]] double link_credit(LinkId link) const;
  // Vehicles queued at the stop line of `road`, over all its movements
  // (q_i of Eq. 1; O(1), maintained incrementally). Also a test hook.
  [[nodiscard]] int queued_on_road(RoadId road) const;

 private:
  struct VehicleRecord {
    traffic::Route route;
    // Global spawn ordinal. Slot recycling permutes vehicle indices, so
    // order-sensitive end-of-run bookkeeping sorts by this instead.
    std::uint64_t spawn_seq = 0;
    // Index of the next junction the vehicle reaches (0 on the entry road).
    std::size_t junction = 0;
    double entry_time = 0.0;
    // Ticks spent in movement queues by closed stays, and the tick the open
    // stay began (meaningful only while the vehicle is queued).
    std::uint64_t queued_ticks = 0;
    std::uint64_t stay_start = 0;
    bool in_network = false;
  };

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

  // Static per-link inputs, flattened once at construction so observe() and
  // arbitrate_and_serve() read one row per link instead of chasing the
  // network's links and roads.
  struct LinkRow {
    std::uint32_t from_road = 0;
    std::uint32_t to_road = 0;
    int upstream_capacity = 0;    // design W of from_road
    int downstream_capacity = 0;  // design W of to_road
    double service_rate = 0.0;    // mu
    double rate_dt = 0.0;         // mu * step_s: credit gained per green tick
    double burst = 0.0;           // max(1, rate_dt): the credit cap
    double to_free_flow_s = 0.0;  // free-flow time of to_road
  };

  struct Watch {
    RoadId road;
    std::size_t series_index;
  };

  void step();
  void control_step();
  // Allocates a vehicle slot, reusing a completed vehicle's slot when one is
  // free so storage stays O(peak active + waiting), not O(history).
  [[nodiscard]] VehicleId alloc_vehicle();
  void admit_spawns(double from, double to);
  // Service phase, run before the tick advances now_: replenishes each green
  // movement's credit (capped at one burst), then serves while credit, queue
  // and downstream capacity allow, in ascending link id, pushing each served
  // vehicle into the downstream transit FIFO stamped with now_ plus the
  // road's free-flow time.
  void arbitrate_and_serve();
  // Pops the due transits of every road whose FIFO is non-empty, in road
  // order: arrivals join their movement queue, and on an exit road the
  // vehicle completes.
  void drain_due_transits();
  // A road's transit FIFO received a vehicle.
  void mark_transit(std::size_t road) {
    transit_roads_[road / 64] |= std::uint64_t{1} << (road % 64);
  }
  // Seconds of `ticks` queued ticks: that many additions of step_s from 0.0,
  // the sum a tick-by-tick accrual builds (ticks * step_s rounds differently
  // when step_s is not a binary fraction). Memoized, grown on demand.
  [[nodiscard]] double queued_seconds(std::uint64_t ticks);
  void sample_watches();
  void route_vehicle_into_queue(VehicleId vid, RoadId road);
  void complete_vehicle(VehicleId vid);
  // Fills and returns the reusable observation buffer (valid until the next
  // observe() call); avoids re-allocating the link array per decision.
  [[nodiscard]] const core::IntersectionObservation& observe(const net::Intersection& node);

  const net::Network& net_;
  QueueSimConfig config_;
  std::vector<core::ControllerPtr> controllers_;
  traffic::DemandGenerator& demand_;

  double now_ = 0.0;
  // Ticks completed; the queuing-time clock of every stay.
  std::uint64_t tick_ = 0;
  double next_control_ = 0.0;
  double next_sample_ = 0.0;

  std::vector<RoadState> roads_;
  std::vector<LinkQueueState> links_;
  std::vector<LinkRow> link_rows_;
  std::vector<net::PhaseIndex> displayed_;  // per intersection
  // Per-link bitmap of every junction's displayed-phase links, rewritten by
  // the control step where a junction's phase changes (the transition phase
  // has no links). Service walks its set bits.
  std::vector<std::uint64_t> green_links_;
  // Per-road bitmap: the road's transit FIFO is non-empty. Set at every push
  // (admission, service), cleared by the drain when it empties the FIFO.
  std::vector<std::uint64_t> transit_roads_;
  // queued_seconds() memo: entry k is k additions of step_s from 0.0.
  std::vector<double> queued_seconds_{0.0};
  std::vector<VehicleRecord> vehicles_;
  // Slots of completed vehicles available for reuse.
  std::vector<VehicleId::value_type> free_slots_;
  // Vehicles inside the network, maintained incrementally.
  int in_network_count_ = 0;
  // Vehicles queued at the stop line of each road (sum over its movement
  // queues), maintained incrementally so observe() is O(1) per reading.
  std::vector<int> road_queued_;
  // Effective inflow capacity per road: the design W from the network,
  // overridden by set_road_capacity() during incidents. Admission and the
  // serve-credit downstream check read this; observations read the design
  // capacity from link_rows_.
  std::vector<int> road_capacity_;
  // Spawns waiting for space on their (full) entry road, FIFO per road.
  std::vector<VecQueue<VehicleId>> entry_buffer_;
  // Reused per-tick spawn buffer filled by DemandGenerator::poll_into.
  std::vector<traffic::SpawnRequest> spawn_buffer_;

  std::vector<Watch> watches_;
  // Reused by observe() so the per-decision link array is allocated once.
  core::IntersectionObservation obs_scratch_;
  stats::RunResult result_;
  bool finished_ = false;
};

}  // namespace abp::queuesim
