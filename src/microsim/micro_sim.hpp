// Microscopic traffic simulator: the repository's SUMO substitute.
//
// Space-continuous, time-discrete simulation of individual vehicles:
//   * by default every non-exit road carries one *dedicated turning lane* per
//     feasible movement at its downstream junction (the paper's lane
//     assumption, which rules out head-of-line blocking); vehicles pick their
//     lane on entry from the movement their route takes at the end of the
//     road (traffic::route_link) and never change lanes.
//     MicroSimConfig::dedicated_turn_lanes = false switches to a single mixed
//     lane per road, where HOL blocking becomes possible (Section IV Q4);
//   * longitudinal dynamics follow the Krauss car-following model
//     (src/microsim/krauss.hpp) against the lane leader or the stop line;
//   * a green movement serves the head vehicle inside its stop-line service
//     zone at most at the saturation rate (one grant per 1/mu seconds by
//     default); a served vehicle traverses the junction box for a fixed
//     crossing time and is released onto the matching lane of the downstream
//     road, whose capacity W it reserves at grant time so the road can never
//     exceed W;
//   * the transition (amber) phase grants nothing; vehicles already in the
//     box finish crossing — precisely the role of the paper's c0;
//   * demand arrives via traffic::DemandGenerator; vehicles whose entry road
//     is full or whose entry point is blocked wait outside the network.
//
// Controllers are invoked every control interval (the paper's mini-slot)
// with the observation sim::RunCore builds for both backends from their
// reading hooks. Here the queue readings come from speed-threshold detectors
// (optionally degraded by MicroSimConfig::sensor); the capacity test of
// Eq. (8) uses physical occupancy. See src/core/observation.hpp for the
// two-sensor rationale.
//
// --- Tick structure (see docs/PERFORMANCE.md) ---
// Each tick runs a junction phase (admission, junction-box releases,
// stop-line service grants — everything that touches cross-road state) and
// then the sweep: the Krauss update of every active lane, visiting the
// active-road bitmap in road order. Each road draws dawdling noise from its
// own counter-based StreamRng, so its draws depend only on the seed, the road
// and its own traffic. An exit road's head that crosses the far end completes
// inside the sweep, so completions accumulate their metrics in road order.
//
// --- Active set ---
// A tick pays for active state only: the sweep visits the roads whose bitmap
// bit is set (occupied, or holding memo rows not yet re-zeroed), and marks
// per-link and per-junction bitmaps as it moves the heads. Stop-line service
// visits only the links that are both *ready* (the head of the lane feeding
// the link is inside its service zone, and on a mixed lane takes that link)
// and *green* (in the displayed phase), in ascending link id, which is the
// (junction, phase-link) order. RunCore's control step skips the
// observation and decision of a junction that the memo-rebuild sweep left
// unmarked — not *queued* (every queue reading 0) and not *blocked* (no full
// outgoing road) — whenever the sensor is perfect and the time is before the
// hold its controller declared after its last decision
// (SignalController::idle_hold_until). Every skip is exact: skipped work
// could not have changed any state.
//
// Vehicle state is stored SoA, split hot from cold. The kinematic state the
// sweep touches on every vehicle-step — position and speed — lives in each
// lane's single storage block (src/microsim/lane_store.hpp), next to the
// lane's waiting times and vehicle ids, so the inner Krauss loop streams over
// contiguous doubles in follow order instead of gathering through vehicle ids
// (the AoS layout paid one-plus cache lines per vehicle-step for exactly
// this). Every lane sits in one table in road order, so the sweep walks the
// lanes of the active roads forward through one array. The resolved next
// movement is a global array indexed by VehicleId (touched only for head or
// departing vehicles), and the cold per-vehicle record (route, timestamps,
// junction bookkeeping, the waiting total carried between lanes) sits in the
// vehicle ledger of sim::RunCore (src/sim/run_core.hpp), which only the
// junction phase reads. The run loop itself — clock, control step (observe,
// decide, the idle skip), watches, spawn buffers on the entry roads,
// finish() — is RunCore's, shared with the queue sim; MicroSim supplies the
// tick and the hooks, the sensor model among them.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/controller.hpp"
#include "src/microsim/lane_kernel.hpp"
#include "src/microsim/lane_store.hpp"
#include "src/microsim/params.hpp"
#include "src/net/network.hpp"
#include "src/sim/run_core.hpp"
#include "src/stats/run_result.hpp"
#include "src/traffic/demand.hpp"
#include "src/util/rng.hpp"

namespace abp::microsim {

// A vehicle's record in the ledger: sim::VehicleBase plus where it is. The
// hot kinematic state (position, speed, in-lane waiting time) lives in the
// lane blocks (Lane::vehicles), the resolved next movement in
// MicroSim::veh_next_link_.
struct Vehicle : sim::VehicleBase {
  RoadId road;  // current road (on a lane) or target road (in a junction box)
  int lane = 0;  // lane index on `road`
  double junction_exit = 0.0;  // time the junction box releases the vehicle
  // Waiting time carried between lanes: a lane block takes it on push and
  // writes it back on pop, so it is current only while the vehicle is off a
  // lane.
  double waiting = 0.0;
};

class MicroSim : public sim::RunCore<MicroSim, Vehicle> {
 public:
  // `network` and `demand` must outlive the simulator; `controllers` holds
  // the controller of each intersection, indexed by IntersectionId::index().
  MicroSim(const net::Network& network, MicroSimConfig config,
           std::vector<core::ControllerPtr> controllers, traffic::DemandGenerator& demand,
           std::uint64_t seed);

  // --- Introspection hooks used by tests ---
  // Vehicles on the dedicated lane feeding `link`.
  [[nodiscard]] int lane_count(LinkId link) const;
  // Vehicles on the road (all lanes) plus inbound junction reservations.
  // Also a RunCore hook (the full-road test of Eq. 8).
  [[nodiscard]] int road_occupancy(RoadId road) const { return roads_[road.index()].occupancy; }
  // Stop-line queue total of a road: lane_count over all its movements (the
  // microscopic q_i of Eq. 1; same contract as QueueSim::queued_on_road).
  [[nodiscard]] int queued_on_road(RoadId road) const;
  // Positions (road-start-relative) of vehicles on a lane, head first.
  [[nodiscard]] std::vector<double> lane_positions(LinkId link) const;
  // True when no two vehicles on any lane overlap (collision check).
  [[nodiscard]] bool no_overlaps() const;

 private:
  friend class sim::RunCore<MicroSim, Vehicle>;

  // --- RunCore hooks ---
  void tick();
  // Queue readings pass through the detector model (MicroSimConfig::sensor)
  // from the control-step memo tables that sweep_roads rebuilt, so a reading
  // is a table read, not a lane scan. An imperfect sensor draws from rng_ on
  // each reading, in the order RunCore's observe() takes them.
  [[nodiscard]] int link_reading(LinkId link) {
    return core::measure_queue(link_queued_approach_[link.index()], config_.sensor, rng_);
  }
  [[nodiscard]] int approach_reading(RoadId road) {
    return core::measure_queue(road_queued_approach_[road.index()], config_.sensor, rng_);
  }
  [[nodiscard]] int congestion_reading(RoadId road) {
    return core::measure_queue(road_queued_congestion_[road.index()], config_.sensor, rng_);
  }
  // Idle as the memo-rebuild sweep left junction j: not *queued* (every
  // queue reading 0) and not *blocked* (no full outgoing road). Only under a
  // perfect sensor: an imperfect one draws from rng_ on every reading, so a
  // skipped observation would shift the stream.
  [[nodiscard]] bool idle(std::size_t j) const {
    const std::uint64_t busy = queued_junctions_[j / 64] | blocked_junctions_[j / 64];
    return sensor_perfect_ && ((busy >> (j % 64)) & 1) == 0;
  }
  void phase_changed(std::size_t /*junction*/) {}
  // Fig. 5 plots queue lengths, i.e. what the approach detectors report:
  // the slow vehicles over all lanes of the road (q_i of Eq. 1).
  [[nodiscard]] int watch_reading(RoadId road) const;
  // Writes the lane-carried waiting times of vehicles still on a lane back
  // to their records.
  void close_stays();
  [[nodiscard]] static double queue_seconds(const Vehicle& v) { return v.waiting; }

  struct Lane {
    // The lane's vehicles, head (largest pos) first: id, position, speed and
    // the waiting time accumulated on this lane, in one block. The waiting
    // time is carried in from the vehicle's record on push and written back
    // on pop — a scattered access once per road traversal instead of once
    // per queued vehicle-step.
    LaneStore vehicles;
    // Movement this lane feeds; empty for the single lane of an exit road.
    std::optional<LinkId> link;
    // Tick timestamp of the last service grant from this lane. A stop line
    // is one physical server: on a mixed lane several green links share the
    // lane, and without this stamp a second link could serve the new head in
    // the same tick, doubling the lane's discharge rate.
    double serviced_at = -1.0;
  };
  // The sweep walks lanes_ forward, so a lane's size is its stride.
  static_assert(sizeof(Lane) <= 40);

  // A road's lanes are lanes_[lane_begin .. lane_begin + lane_count).
  struct RoadRt {
    std::uint32_t lane_begin = 0;
    std::uint32_t lane_count = 0;
    // Vehicles on lanes + junction-box reservations headed here.
    int occupancy = 0;
    // Index of the junction this road arrives at; kNoJunction on exit roads.
    std::uint32_t to_junction = 0;
    // Index of the junction whose links enter this road; kNoJunction when no
    // link does (entry roads).
    std::uint32_t from_junction = 0;
  };

  struct LinkRt {
    RoadId from_road;
    int lane_index = 0;
    // Earliest time the next service grant may be issued (rate mu).
    double next_grant = 0.0;
  };

  static constexpr std::uint32_t kNoJunction = ~std::uint32_t{0};

  void admit_spawns();
  void release_junction_vehicles();
  // Junction phase: stop-line service for the head vehicle of every ready
  // green link. Grants mutate cross-road state (downstream occupancy, the
  // junction box), so this runs before the sweep.
  void service_junctions();
  // Krauss update of every lane of the active roads, in road order.
  void sweep_roads();
  // One lane's update: lane_kernel.hpp's lane_update over the lane's SoA
  // arrays, then the (branchy, per-vehicle) accounting tail — exit-road
  // completion, waiting-time accumulation, queued-count memos.
  void sweep_lane(const net::Road& road, Lane& lane, StreamRng& rng);
  // Zeroes one road's memo rows (road counters + its movements' link rows).
  void zero_memo_rows(std::size_t road_index);
  // Grants a crossing to `vid` (head of a green lane) if rate, capacity and
  // downstream insertion allow; returns true when granted.
  bool try_grant(VehicleId vid, LinkId link);
  // Sets bit `index` of a bitmap (bit i % 64 of word i / 64) when `on`, with
  // a shift and an OR instead of a branch.
  static void mark(std::vector<std::uint64_t>& bitmap, std::size_t index, bool on = true) {
    bitmap[index / 64] |= std::uint64_t{on} << (index % 64);
  }
  // Queue-length detector: vehicles on the lane moving slower than the given
  // speed threshold.
  [[nodiscard]] int lane_queued_count(const Lane& lane, double threshold_mps) const;
  // Lane `lane_index` of a road, and the lane that feeds `link`.
  [[nodiscard]] Lane& lane_of(const RoadRt& rt, int lane_index) {
    return lanes_[rt.lane_begin + static_cast<std::uint32_t>(lane_index)];
  }
  [[nodiscard]] const Lane& lane_of(const RoadRt& rt, int lane_index) const {
    return lanes_[rt.lane_begin + static_cast<std::uint32_t>(lane_index)];
  }
  [[nodiscard]] const Lane& lane_of(LinkId link) const {
    const LinkRt& lrt = links_[link.index()];
    return lane_of(roads_[lrt.from_road.index()], lrt.lane_index);
  }
  // True when a vehicle can be released at the start of the lane.
  [[nodiscard]] bool entry_clear(const RoadRt& rt, int lane_index) const;

  MicroSimConfig config_;
  bool sensor_perfect_ = true;
  // Sensor noise on controller observations. The sweep's dawdling draws come
  // from road_streams_ instead, so observations never shift a dawdle draw.
  Rng rng_;
  // One counter-based dawdling stream per road (stream id = road index).
  std::vector<StreamRng> road_streams_;
  // The lane kernel's materialized gap/leader/draw arrays, reused across
  // lanes and ticks.
  LaneKernelScratch sweep_scratch_;

  // The route_link() the vehicle takes at the end of its current road (the
  // entry road while it waits outside); invalid on exit roads. Resolved once
  // per road, so admission, lane choice and mixed-lane queue counting never
  // re-resolve the movement. Indexed by VehicleId, like the ledger.
  std::vector<LinkId> veh_next_link_;

  std::vector<RoadRt> roads_;
  // Every lane of the network, road by road (RoadRt::lane_begin).
  std::vector<Lane> lanes_;
  std::vector<LinkRt> links_;
  // Per-link bitmap that stop-line service walks as ready & green (RunCore's
  // green_links_), word by word, in ascending link id. Ready: the head of
  // the lane feeding the link may be served — cleared at the start of every
  // sweep, marked after each approach lane's update where !(head pos < road
  // length - service zone) on the lane's link (dedicated) or on the head's
  // own movement (mixed), and at a push onto an empty approach lane
  // (admission, box release) on the pushed vehicle's movement. It is exact:
  // a head moves only in the sweep, and changes identity only at such a push
  // or at a stop-line pop, whose new head cannot be granted in the same
  // service pass (one link per dedicated lane, serviced_at on a mixed lane);
  // a mixed lane's head keeps its movement while it heads the lane.
  std::vector<std::uint64_t> ready_links_;
  // Vehicles currently inside a junction box, unordered.
  std::vector<VehicleId> in_junction_;
  // Control-step memo tables: queued counts per road (both detector
  // thresholds) and per link (approach threshold). Rebuilt during the lane
  // sweep of the tick preceding each control step (memo_pending_), where the
  // vehicles are already in cache, so the readings are pure table reads. A
  // road's visit zeroes and refills its own rows (a link's row belongs to
  // its from_road).
  std::vector<int> road_queued_approach_;
  std::vector<int> road_queued_congestion_;
  std::vector<int> link_queued_approach_;
  bool memo_pending_ = false;
  // Active-road bitmap, one bit per road (bit r % 64 of word r / 64). Set in
  // the junction phase wherever a road's occupancy rises (admission, grant);
  // cleared only by the sweep, on a memo-rebuild tick, after zeroing an empty
  // road's memo rows. Invariant: bit clear => occupancy 0 and memo rows zero,
  // so the sweep may skip every clear bit.
  std::vector<std::uint64_t> active_roads_;
  // Per-junction bitmaps the memo-rebuild sweep marks as it moves the
  // vehicles. Queued: some approach road's memo approach count is non-zero,
  // i.e. some link's queue reading is (a road's link rows sum to its approach
  // row). Blocked: some road a link of the junction enters is at design
  // capacity. Nothing changes either between that sweep and the control step
  // that reads them, which opens the next tick.
  std::vector<std::uint64_t> queued_junctions_;
  std::vector<std::uint64_t> blocked_junctions_;
  // Per-entry-road admission scratch, sized to the widest road once.
  std::vector<char> lane_blocked_;
};

}  // namespace abp::microsim
