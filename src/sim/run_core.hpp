// The run loop both backends share: the clock, the control step, watches
// and the vehicle ledger.
//
// In the paper every junction runs the same loop: at each mini-slot its
// controller reads the local queues and picks a phase. RunCore<Backend,
// Vehicle> is that loop, written once for the micro car-following sim
// (src/microsim) and the Section-II queue sim (src/queuesim). A backend
// derives from it (CRTP), keeps its own tick, and supplies these hooks,
// which RunCore calls statically, never through a virtual call:
//   tick()                  the backend's step: admission, service, movement;
//                           it advances now_ by one step.
//   link_reading(l)         the queue reading of link l (q_i^{i'}).
//   approach_reading(r)     the queue reading of approach road r (q_i).
//   congestion_reading(r)   the queue reading of outgoing road r (q_{i'}).
//   road_occupancy(r)       the vehicles counted against road r's capacity
//                           (the full-road test of Eq. 8).
//   idle(j)                 junction j is idle: every queue reading is 0, and
//                           no road a link of j enters is at its design W,
//                           whose Eq. (8) sentinel beta could make another
//                           phase win. Before its controller's hold
//                           (SignalController::idle_hold_until) a decision
//                           would then keep the displayed phase and change no
//                           state, so the control step skips it.
//   phase_changed(j)        junction j is about to display another phase.
//   watch_reading(road)     the queue length a road watch samples (q_i).
//   close_stays()           finish(): fold the state of vehicles still in the
//                           network into their records.
//   queue_seconds(v)        the queuing time a record contributes to the
//                           metric.
// observe() takes the three readings of each link in the junction's link
// order, link before approach before congestion, so a backend whose readings
// draw from one random stream draws in a fixed sequence. The control step
// calls the reading hooks and road_occupancy per link and idle per junction,
// so a backend defines them in its class body, where they can be inlined.
//
// The ledger keeps one record per vehicle, recycled through free slots so
// storage stays O(peak active + waiting), not O(history). Spawns wait
// outside the network in one FIFO per entry road until the backend admits
// them (enter); complete() closes a record at the end of an exit road, and
// finish() closes the rest in spawn order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/controller.hpp"
#include "src/net/network.hpp"
#include "src/stats/run_result.hpp"
#include "src/traffic/demand.hpp"

namespace abp::sim {

// The part of a vehicle's record the ledger reads; each backend's record
// derives from it.
struct VehicleBase {
  traffic::Route route;
  // Admitted and not yet completed or closed by finish().
  bool in_network = false;
  // Global spawn ordinal. Slot recycling permutes vehicle indices, so
  // order-sensitive end-of-run bookkeeping sorts by this instead.
  std::uint64_t spawn_seq = 0;
  // Index of the next junction the vehicle reaches (0 on the entry road).
  std::size_t junction = 0;
  double entry_time = 0.0;
};

template <typename Backend, typename Vehicle>
class RunCore {
 public:
  // Registers a queue-length watch on a road: the series samples
  // watch_reading(road) every sample interval.
  void watch_road(RoadId road, std::string series_name) {
    watches_.push_back({road, result_.road_series.size()});
    result_.road_series.emplace_back(std::move(series_name));
  }

  // Advances the simulation to `until_s`; may be called repeatedly with
  // increasing horizons.
  stats::RunResult& run_until(double until_s) {
    if (finished_) throw std::logic_error("run_until after finish");
    while (now_ < until_s) {
      if (now_ >= next_control_) {
        control_step();
        next_control_ += control_interval_s_;
      }
      if (now_ >= next_sample_) {
        sample_watches();
        next_sample_ += sample_interval_s_;
      }
      self().tick();
    }
    return result_;
  }

  // Runs to `duration_s`, closes every open record, returns the result.
  stats::RunResult finish(double duration_s) {
    run_until(duration_s);
    finished_ = true;
    self().close_stays();
    // Open records are closed so heavy congestion shows in the metrics
    // instead of being dropped, in spawn order: slot recycling permutes
    // vehicle indices, and the metric SampleSets are floating-point
    // order-sensitive.
    std::vector<std::pair<std::uint64_t, VehicleId>> open;
    for (std::size_t i = 0; i < vehicles_.size(); ++i) {
      if (!vehicles_[i].in_network) continue;
      open.emplace_back(vehicles_[i].spawn_seq, VehicleId(static_cast<VehicleId::value_type>(i)));
    }
    std::sort(open.begin(), open.end());
    for (const auto& [seq, vid] : open) {
      Vehicle& v = vehicles_[vid.index()];
      result_.metrics.in_network_at_end += 1;
      result_.metrics.queuing_time_s.add(self().queue_seconds(v));
      result_.metrics.travel_time_s.add(now_ - v.entry_time);
      v.in_network = false;
    }
    for (stats::PhaseTrace& trace : result_.phase_traces) trace.finish(now_);
    result_.duration_s = now_;
    return std::move(result_);
  }

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] net::PhaseIndex displayed_phase(IntersectionId node) const {
    return displayed_[node.index()];
  }
  // Vehicles inside the network right now, maintained incrementally.
  [[nodiscard]] int vehicles_in_network() const { return in_network_count_; }

  // Capacity-override hook for incident injection (sim adapter): caps the
  // vehicles admitted or served into the road from now on. Vehicles already
  // on the road drain normally; occupancy above the new value blocks inflow
  // until it has drained, so occupancy never exceeds the design W.
  // Observations keep reporting the design capacity — controllers know the
  // road geometry, not the incident. Called only between ticks.
  void set_road_capacity(RoadId road, int capacity) {
    road_capacity_[road.index()] = std::max(0, capacity);
  }
  [[nodiscard]] int road_capacity(RoadId road) const { return road_capacity_[road.index()]; }

 protected:
  // `network` and `demand` must outlive the simulator; `controllers` holds
  // the controller of each intersection, indexed by IntersectionId::index().
  RunCore(const net::Network& network, std::vector<core::ControllerPtr> controllers,
          traffic::DemandGenerator& demand, double step_s, double control_interval_s,
          double sample_interval_s)
      : net_(network),
        controllers_(std::move(controllers)),
        demand_(demand),
        control_interval_s_(control_interval_s),
        sample_interval_s_(sample_interval_s) {
    if (!net_.finalized()) throw std::invalid_argument("network must be finalized");
    if (step_s <= 0.0) throw std::invalid_argument("step must be positive");
    if (control_interval_s < step_s) {
      throw std::invalid_argument("control interval must be >= step");
    }
    if (controllers_.size() != net_.intersections().size()) {
      throw std::invalid_argument("need exactly one controller per intersection");
    }
    displayed_.assign(net_.intersections().size(), net::kTransitionPhase);
    green_links_.assign((net_.links().size() + 63) / 64, 0);
    hold_until_.reserve(controllers_.size());
    for (const core::ControllerPtr& c : controllers_) hold_until_.push_back(c->idle_hold_until());
    link_obs_.reserve(net_.links().size());
    for (const net::Link& link : net_.links()) {
      link_obs_.push_back({link.from_road, link.to_road, net_.road(link.from_road).capacity,
                           net_.road(link.to_road).capacity, link.service_rate});
    }
    result_.phase_traces.resize(net_.intersections().size());
    road_capacity_.reserve(net_.roads().size());
    for (const net::Road& road : net_.roads()) road_capacity_.push_back(road.capacity);
    entry_buffers_.resize(net_.entry_roads().size());
    entry_slot_.assign(net_.roads().size(), kNoEntrySlot);
    for (std::size_t k = 0; k < net_.entry_roads().size(); ++k) {
      entry_slot_[net_.entry_roads()[k].index()] = static_cast<std::uint32_t>(k);
    }
  }

  // Polls the demand arriving in [from, to): each spawn gets a record and
  // joins the FIFO of its entry road. Returns the new vehicles in spawn
  // order (valid until the next call).
  std::span<const VehicleId> take_spawns(double from, double to) {
    demand_.poll_into(from, to, spawn_buffer_);
    spawned_.clear();
    for (const traffic::SpawnRequest& req : spawn_buffer_) {
      const VehicleId vid = alloc_vehicle();
      Vehicle& v = vehicles_[vid.index()];
      v.route = req.route;
      v.spawn_seq = result_.metrics.generated;
      result_.metrics.generated += 1;
      entry_buffers_[entry_slot_[req.route.entry.index()]].push_back(vid);
      spawned_.push_back(vid);
    }
    return spawned_;
  }

  // A waiting vehicle is admitted onto its entry road; waiting outside the
  // network is not travel time.
  void enter(VehicleId vid) {
    Vehicle& v = vehicles_[vid.index()];
    v.in_network = true;
    v.entry_time = now_;
    in_network_count_ += 1;
    result_.metrics.entered += 1;
  }

  // A vehicle leaves the network at the end of an exit road: its record is
  // closed and its slot freed for a later spawn.
  void complete(VehicleId vid) {
    Vehicle& v = vehicles_[vid.index()];
    v.in_network = false;
    in_network_count_ -= 1;
    result_.metrics.completed += 1;
    result_.metrics.queuing_time_s.add(self().queue_seconds(v));
    result_.metrics.travel_time_s.add(now_ - v.entry_time);
    free_slots_.push_back(vid.value());
  }

  // Static per-link observation inputs, flattened once at construction so
  // observe() reads one row per link instead of chasing the network's links
  // and roads.
  struct LinkObs {
    RoadId from_road;
    RoadId to_road;
    int upstream_capacity = 0;    // design W of from_road
    int downstream_capacity = 0;  // design W of to_road
    double service_rate = 0.0;    // mu
  };

  const net::Network& net_;
  double now_ = 0.0;
  // The next control boundary; a tick may read it to prepare that step.
  double next_control_ = 0.0;
  // Per-link bitmap (bit l % 64 of word l / 64) of every junction's
  // displayed-phase links, rewritten by the control step where a junction's
  // phase changes (the transition phase has no links). Service walks its set
  // bits in ascending link id, which net::Network::finalize guarantees is
  // the (junction, phase-link) order.
  std::vector<std::uint64_t> green_links_;
  // Effective inflow capacity per road: the design W from the network,
  // overridden by set_road_capacity() during incidents. Admission and grant
  // checks read this; observations read the design capacity.
  std::vector<int> road_capacity_;
  std::vector<Vehicle> vehicles_;
  // Vehicles waiting outside the network for space, FIFO: one buffer per
  // entry road, in net_.entry_roads() order.
  std::vector<std::deque<VehicleId>> entry_buffers_;
  std::vector<LinkObs> link_obs_;
  stats::RunResult result_;

 private:
  static constexpr std::uint32_t kNoEntrySlot = ~std::uint32_t{0};

  struct Watch {
    RoadId road;
    std::size_t series_index;
  };

  [[nodiscard]] Backend& self() { return static_cast<Backend&>(*this); }

  // The junction's observation, valid until the next observe() call: the
  // backend's readings, occupancy and the design capacities per link.
  const core::IntersectionObservation& observe(const net::Intersection& node) {
    core::IntersectionObservation& obs = obs_scratch_;
    obs.time = now_;
    obs.links.resize(node.links.size());
    for (std::size_t i = 0; i < node.links.size(); ++i) {
      const LinkId lid = node.links[i];
      const LinkObs& link = link_obs_[lid.index()];
      core::LinkState& state = obs.links[i];
      state.queue = self().link_reading(lid);
      state.upstream_total = self().approach_reading(link.from_road);
      state.upstream_capacity = link.upstream_capacity;
      state.downstream_queue = self().congestion_reading(link.to_road);
      state.downstream_total = self().road_occupancy(link.to_road);
      state.downstream_capacity = link.downstream_capacity;
      state.service_rate = link.service_rate;
    }
    return obs;
  }

  // One decision per junction: observe, decide, check the phase, rewrite the
  // green bits where it changes and record the trace.
  void control_step() {
    const std::vector<net::Intersection>& nodes = net_.intersections();
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      // An idle junction's decision before its controller's hold would
      // return the displayed phase and change no state. An unchanged phase
      // would only extend the trace's end time, which finish() sets anyway.
      // The hold is tested first: a junction whose controller covers no call
      // (hold -infinity, every decorator) never pays for idle().
      if (now_ < hold_until_[j] && self().idle(j)) continue;
      core::SignalController& controller = *controllers_[j];
      const net::PhaseIndex phase = controller.decide(observe(nodes[j]));
      if (phase < 0 || phase >= static_cast<int>(nodes[j].phases.size())) {
        throw std::logic_error("controller returned an out-of-range phase");
      }
      hold_until_[j] = controller.idle_hold_until();
      if (phase != displayed_[j]) {
        self().phase_changed(j);
        for (LinkId lid : nodes[j].phases[static_cast<std::size_t>(displayed_[j])].links) {
          green_links_[lid.index() / 64] &= ~(std::uint64_t{1} << (lid.index() % 64));
        }
        for (LinkId lid : nodes[j].phases[static_cast<std::size_t>(phase)].links) {
          green_links_[lid.index() / 64] |= std::uint64_t{1} << (lid.index() % 64);
        }
        displayed_[j] = phase;
      }
      result_.phase_traces[j].record(now_, phase);
    }
  }

  void sample_watches() {
    for (const Watch& w : watches_) {
      result_.road_series[w.series_index].push(
          now_, static_cast<double>(self().watch_reading(w.road)));
    }
    result_.in_network_series.push(now_, static_cast<double>(in_network_count_));
  }

  [[nodiscard]] VehicleId alloc_vehicle() {
    if (!free_slots_.empty()) {
      const VehicleId vid(free_slots_.back());
      free_slots_.pop_back();
      vehicles_[vid.index()] = Vehicle{};
      return vid;
    }
    vehicles_.emplace_back();
    return VehicleId(static_cast<VehicleId::value_type>(vehicles_.size() - 1));
  }

  std::vector<core::ControllerPtr> controllers_;
  traffic::DemandGenerator& demand_;
  double control_interval_s_;
  double sample_interval_s_;
  double next_sample_ = 0.0;
  std::vector<net::PhaseIndex> displayed_;
  // Per junction, the controller's idle_hold_until(), cached at construction
  // and after each of its decisions. Only decide() and reset() may change it,
  // and the simulator never calls reset().
  std::vector<double> hold_until_;
  // Reused by observe() so the per-decision link array is allocated once.
  core::IntersectionObservation obs_scratch_;
  std::vector<Watch> watches_;
  // Slots of completed vehicles available for reuse.
  std::vector<VehicleId::value_type> free_slots_;
  int in_network_count_ = 0;
  // entry_buffers_ index per road; kNoEntrySlot on every road but the entry
  // roads.
  std::vector<std::uint32_t> entry_slot_;
  // Reused per-tick spawn buffer filled by DemandGenerator::poll_into, and
  // the ids take_spawns() returns.
  std::vector<traffic::SpawnRequest> spawn_buffer_;
  std::vector<VehicleId> spawned_;
  bool finished_ = false;
};

}  // namespace abp::sim
