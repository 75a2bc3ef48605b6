#include "src/microsim/micro_sim.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "src/microsim/krauss.hpp"
#include "src/microsim/lane_kernel.hpp"

namespace abp::microsim {

MicroSim::MicroSim(const net::Network& network, MicroSimConfig config,
                   std::vector<core::ControllerPtr> controllers,
                   traffic::DemandGenerator& demand, std::uint64_t seed)
    : RunCore(network, std::move(controllers), demand, config.dt_s, config.control_interval_s,
              config.sample_interval_s),
      config_(config),
      sensor_perfect_(config.sensor.perfect()),
      rng_(seed) {
  roads_.resize(net_.roads().size());
  links_.resize(net_.links().size());
  road_streams_.reserve(net_.roads().size());
  for (std::size_t r = 0; r < net_.roads().size(); ++r) {
    road_streams_.emplace_back(seed, static_cast<std::uint64_t>(r));
  }

  // Lane layout: an exit road has one unsignalled lane. Any other road has
  // one dedicated lane per feasible movement, in the topology index's turn
  // order (Left, Straight, Right) — exactly the dedicated-lane layout the
  // paper assumes — or one mixed lane shared by all movements, where a
  // vehicle's own route selects its movement at the stop line (head-of-line
  // blocking). The lane table is sized once, then filled road by road.
  std::uint32_t lane_total = 0;
  for (const net::Road& road : net_.roads()) {
    RoadRt& rt = roads_[road.id.index()];
    rt.lane_begin = lane_total;
    rt.lane_count = road.is_exit() || !config_.dedicated_turn_lanes
                        ? 1
                        : static_cast<std::uint32_t>(net_.links_from(road.id).size());
    rt.to_junction =
        road.is_exit() ? kNoJunction : static_cast<std::uint32_t>(road.to.index());
    rt.from_junction = kNoJunction;
    lane_total += rt.lane_count;
  }
  lanes_ = std::vector<Lane>(lane_total);
  for (const net::Road& road : net_.roads()) {
    if (road.is_exit()) continue;
    const RoadRt& rt = roads_[road.id.index()];
    int lane_index = 0;
    for (LinkId lid : net_.links_from(road.id)) {
      LinkRt& lrt = links_[lid.index()];
      lrt.from_road = road.id;
      if (config_.dedicated_turn_lanes) {
        lrt.lane_index = lane_index++;
        lane_of(rt, lrt.lane_index).link = lid;
      }
    }
  }

  for (const net::Link& link : net_.links()) {
    roads_[link.to_road.index()].from_junction = static_cast<std::uint32_t>(link.owner.index());
  }

  road_queued_approach_.assign(net_.roads().size(), 0);
  road_queued_congestion_.assign(net_.roads().size(), 0);
  link_queued_approach_.assign(net_.links().size(), 0);
  active_roads_.assign((net_.roads().size() + 63) / 64, 0);
  ready_links_.assign(green_links_.size(), 0);
  const std::size_t junction_words = (net_.intersections().size() + 63) / 64;
  queued_junctions_.assign(junction_words, 0);
  blocked_junctions_.assign(junction_words, 0);
  std::uint32_t max_lanes = 1;
  for (const RoadRt& rt : roads_) max_lanes = std::max(max_lanes, rt.lane_count);
  lane_blocked_.assign(max_lanes, 0);
}

int MicroSim::lane_count(LinkId link) const {
  const Lane& lane = lane_of(link);
  if (lane.link) return static_cast<int>(lane.vehicles.size());
  // Mixed lane: count the vehicles whose route takes this movement.
  const VehicleId* ids = lane.vehicles.ids();
  return static_cast<int>(std::count_if(ids, ids + lane.vehicles.size(), [&](VehicleId vid) {
    return veh_next_link_[vid.index()] == link;
  }));
}

int MicroSim::queued_on_road(RoadId road) const {
  int total = 0;
  for (LinkId link : net_.links_from(road)) total += lane_count(link);
  return total;
}

std::vector<double> MicroSim::lane_positions(LinkId link) const {
  const LaneStore& vehicles = lane_of(link).vehicles;
  return std::vector<double>(vehicles.pos(), vehicles.pos() + vehicles.size());
}

bool MicroSim::no_overlaps() const {
  for (const Lane& lane : lanes_) {
    const double* pos = lane.vehicles.pos();
    for (std::size_t i = 0; i + 1 < lane.vehicles.size(); ++i) {
      if (pos[i + 1] > pos[i] - config_.vehicle.length_m + 1e-6) return false;
    }
  }
  return true;
}

int MicroSim::lane_queued_count(const Lane& lane, double threshold_mps) const {
  const double* speed = lane.vehicles.speed();
  return static_cast<int>(std::count_if(speed, speed + lane.vehicles.size(),
                                        [&](double v) { return v < threshold_mps; }));
}

int MicroSim::watch_reading(RoadId road) const {
  const RoadRt& rt = roads_[road.index()];
  int count = 0;
  for (const Lane& lane : std::span(lanes_).subspan(rt.lane_begin, rt.lane_count)) {
    count += lane_queued_count(lane, config_.approach_queue_threshold_mps);
  }
  return count;
}

bool MicroSim::entry_clear(const RoadRt& rt, int lane_index) const {
  const LaneStore& vehicles = lane_of(rt, lane_index).vehicles;
  if (vehicles.empty()) return true;
  const double rear_pos = vehicles.pos()[vehicles.size() - 1];
  // The new vehicle's front bumper enters at pos 0; the rear vehicle's back
  // bumper must leave room for it plus the standstill gap.
  return rear_pos - config_.vehicle.length_m >= config_.vehicle.min_gap_m + 0.5;
}

void MicroSim::admit_spawns() {
  const std::span<const VehicleId> spawned = take_spawns(now_, now_ + config_.dt_s);
  veh_next_link_.resize(vehicles_.size());
  for (const VehicleId vid : spawned) {
    const traffic::Route& route = vehicles_[vid.index()].route;
    veh_next_link_[vid.index()] = traffic::route_link(net_, route, 0, route.entry);
  }
  for (std::size_t k = 0; k < entry_buffers_.size(); ++k) {
    const RoadId entry = net_.entry_roads()[k];
    RoadRt& rt = roads_[entry.index()];
    std::deque<VehicleId>& buffer = entry_buffers_[k];
    const int capacity = road_capacity_[entry.index()];
    // Per-lane FIFO admission: dedicated turning lanes run the full road
    // length, so a vehicle waiting for a full lane does not physically block
    // vehicles headed for the other lanes. Order is preserved within each
    // lane; a lane that rejects its first candidate admits nobody this step.
    // The scratch is sized to the widest road of the network at construction,
    // never to a fixed lane count.
    std::fill(lane_blocked_.begin(), lane_blocked_.begin() + rt.lane_count, 0);
    for (auto it = buffer.begin(); it != buffer.end() && rt.occupancy < capacity;) {
      const VehicleId vid = *it;
      const int lane = links_[veh_next_link_[vid.index()].index()].lane_index;
      if (lane_blocked_[static_cast<std::size_t>(lane)] || !entry_clear(rt, lane)) {
        lane_blocked_[static_cast<std::size_t>(lane)] = 1;
        ++it;
        continue;
      }
      it = buffer.erase(it);
      enter(vid);
      rt.occupancy += 1;
      mark(active_roads_, entry.index());
      Vehicle& m = vehicles_[vid.index()];
      m.road = entry;
      m.lane = lane;
      LaneStore& vehicles = lane_of(rt, lane).vehicles;
      // Pushed onto an empty lane, the vehicle is its head, which on a road
      // shorter than the service zone can be served this tick, on its own
      // movement (the lane's link, on a dedicated lane).
      mark(ready_links_, veh_next_link_[vid.index()].index(), vehicles.empty());
      vehicles.push(vid, 0.0,
                    std::min(config_.insertion_speed_mps, net_.road(entry).speed_limit_mps),
                    m.waiting);
      // The lane just received a vehicle at its entry point; nobody else fits
      // behind it this step.
      lane_blocked_[static_cast<std::size_t>(lane)] = 1;
    }
    result_.metrics.entry_blocked_time_s +=
        static_cast<double>(buffer.size()) * config_.dt_s;
  }
}

void MicroSim::release_junction_vehicles() {
  // Order-preserving compaction: vehicles are released in box-entry (FIFO)
  // order, so when two boxed vehicles contend for the same target lane's
  // insertion gap, the earlier grant wins. The order is a pure function of
  // the grant sequence — reproducible per junction, independent of how
  // vehicles were removed in earlier ticks.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < in_junction_.size(); ++i) {
    const VehicleId vid = in_junction_[i];
    const Vehicle& m = vehicles_[vid.index()];
    RoadRt& target = roads_[m.road.index()];
    if (m.junction_exit <= now_ && entry_clear(target, m.lane)) {
      LaneStore& vehicles = lane_of(target, m.lane).vehicles;
      // As in admission: a new head may be inside the service zone already.
      // On an exit road the vehicle has no next movement.
      if (target.to_junction != kNoJunction) {
        mark(ready_links_, veh_next_link_[vid.index()].index(), vehicles.empty());
      }
      vehicles.push(vid, 0.0,
                    std::min(config_.insertion_speed_mps, net_.road(m.road).speed_limit_mps),
                    m.waiting);
    } else {
      in_junction_[kept++] = vid;
    }
  }
  in_junction_.resize(kept);
}

bool MicroSim::try_grant(VehicleId vid, LinkId link) {
  // Only ever called for links of the currently displayed phase (the green
  // set by construction), so no green check is needed — just the headway.
  LinkRt& lrt = links_[link.index()];
  if (now_ < lrt.next_grant) return false;
  Vehicle& m = vehicles_[vid.index()];
  const net::Link& l = net_.link(link);
  const RoadId to_road = l.to_road;
  RoadRt& target = roads_[to_road.index()];
  if (target.occupancy >= road_capacity_[to_road.index()]) return false;

  // The movement the vehicle takes at the end of `to_road` picks its lane
  // there; an exit road has one lane and no movement.
  LinkId next_link;
  int target_lane = 0;
  if (target.to_junction != kNoJunction) {
    next_link = traffic::route_link(net_, m.route, m.junction + 1, to_road);
    target_lane = links_[next_link.index()].lane_index;
  }
  if (!entry_clear(target, target_lane)) return false;

  // Grant: reserve downstream space, consume the service-rate headway, and
  // stage the vehicle's post-crossing location.
  const double physical_rate = config_.saturation_flow_vps > 0.0
                                   ? std::min(l.service_rate, config_.saturation_flow_vps)
                                   : l.service_rate;
  lrt.next_grant = now_ + 1.0 / physical_rate;
  target.occupancy += 1;
  mark(active_roads_, to_road.index());
  m.road = to_road;
  m.lane = target_lane;
  m.junction += 1;
  veh_next_link_[vid.index()] = next_link;
  return true;
}

void MicroSim::service_junctions() {
  // A green movement serves the head vehicle at most once per 1/mu seconds,
  // provided it has reached the service zone at the stop line. Service moves
  // the vehicle into the junction box immediately; everything behind it keeps
  // following normally in the sweep. Only the green links are visited — the
  // control step keeps the displayed phases' links in a bitmap, so red
  // movements are never scanned. On a mixed lane the head vehicle's own
  // route decides the movement — the grant happens on the link matching the
  // head's resolved next_link, and if that movement is red the whole lane
  // waits behind it (head-of-line blocking). Grants read and write state of
  // the *downstream* road (occupancy reservation, insertion-gap check), so
  // they all run here, before the sweep moves any vehicle. Only the green
  // links marked ready are visited, in ascending id, which Network::finalize
  // guarantees is the (junction, phase-link) order: at every other green link
  // the lane is empty, its head is short of the service zone, or (mixed lane)
  // the head takes another movement, so nothing could be granted.
  for (std::size_t w = 0; w < ready_links_.size(); ++w) {
    for (std::uint64_t bits = ready_links_[w] & green_links_[w]; bits != 0; bits &= bits - 1) {
      const LinkId lid(static_cast<LinkId::value_type>(w * 64 + std::countr_zero(bits)));
      const LinkRt& lrt = links_[lid.index()];
      if (now_ < lrt.next_grant) continue;
      RoadRt& rt = roads_[lrt.from_road.index()];
      Lane& lane = lane_of(rt, lrt.lane_index);
      if (lane.vehicles.empty()) continue;
      const VehicleId vid = lane.vehicles.ids()[0];
      // Mixed lane: this link only serves the head if it is the head's own
      // movement (dedicated lanes satisfy this by construction), and the
      // stop line serves at most one vehicle per tick even when several
      // green links share the lane.
      if (!lane.link && (veh_next_link_[vid.index()] != lid || lane.serviced_at == now_)) {
        continue;
      }
      const net::Road& road = net_.road(lrt.from_road);
      if (lane.vehicles.pos()[0] < road.length_m - config_.service_zone_m) continue;
      if (!try_grant(vid, lid)) continue;
      lane.serviced_at = now_;
      Vehicle& m = vehicles_[vid.index()];
      m.waiting = lane.vehicles.waiting()[0];
      m.junction_exit = now_ + config_.junction_crossing_s;
      rt.occupancy -= 1;
      lane.vehicles.pop_head();
      in_junction_.push_back(vid);
    }
  }
}

void MicroSim::sweep_lane(const net::Road& road, Lane& lane, StreamRng& rng) {
  const std::size_t n = lane.vehicles.size();
  if (n == 0) return;

  // Hot path: touches the lane's kinematic arrays, the road's memo-table
  // rows and the road's own dawdle stream.
  const double dt = config_.dt_s;
  // Local copy of the car-following parameters: every store into the lane's
  // double arrays could alias a double field reached through a reference
  // (same TBAA class), which would force the compiler to reload them each
  // iteration; locals provably cannot alias and stay in registers.
  const VehicleParams vp = config_.vehicle;
  const double road_length = road.length_m;
  const bool is_exit = road.is_exit();
  double* pos = lane.vehicles.pos();
  double* speed = lane.vehicles.speed();
  double* waiting = lane.vehicles.waiting();

  // Kinematics: lane_kernel.hpp's lane_update — one fused head-first pass on
  // lanes of at most kFusedLaneMax vehicles, and above that the vectorized
  // passes: bulk dawdle fill (one counter-stream batch, identical stream
  // accounting to n scalar draws), gap stencil, branchless synchronous-Krauss
  // speed pass, fused integrate + stop-line clamp, and the rare sequential
  // overlap fallback. Both paths are branchless where the lane states are
  // unpredictable, and bit-identical to the scalar reference by construction
  // (the same arithmetic on the same operands in the same order);
  // tests/microsim_krauss_test.cpp pins them lane for lane at every
  // occupancy up to 64.
  lane_update(pos, speed, n, road.speed_limit_mps, road_length, is_exit, vp, dt,
              vp.sigma > 0.0 ? &rng : nullptr, sweep_scratch_);

  // Accounting tail — completion, waiting time, queued-count memos —
  // on the final speeds/positions. The integer memo counts commute, so
  // splitting them out of the kinematic loop cannot change them; waiting-time
  // accumulation stays element-wise (+= dt or += 0.0, and a waiting total is
  // never -0.0, so the no-op add is the bitwise identity).
  std::size_t begin = 0;
  if (is_exit && pos[0] >= road_length) {
    // The head crossed the far end (at most the head can, per tick). Write
    // its lane-carried waiting time back and complete it; the pop at the end
    // of this function discards the lane's copy. The sweep visits exit roads
    // in road order, which fixes the floating-point metric accumulation
    // order. A completed vehicle is gone by decision time and must not count
    // in the waiting/memo passes below.
    const VehicleId done = lane.vehicles.ids()[0];
    Vehicle& v = vehicles_[done.index()];
    v.waiting = waiting[0];
    roads_[v.road.index()].occupancy -= 1;
    // The slot becomes reusable next step: the pop below takes the id off
    // its lane before admission, the only allocator, runs again.
    complete(done);
    begin = 1;
  }
  const double waiting_threshold = config_.waiting_speed_threshold_mps;
  for (std::size_t i = begin; i < n; ++i) {
    // Waiting-time accumulation, folded into the lane update so the per-tick
    // cost is O(active vehicles), never O(vehicles ever spawned), and
    // contiguous: the scattered per-vehicle row is only touched when the
    // vehicle leaves the lane.
    waiting[i] += speed[i] < waiting_threshold ? dt : 0.0;
  }
  if (memo_pending_) {
    // Queued-count memo for next step's controller decisions.
    const double approach_threshold = config_.approach_queue_threshold_mps;
    const double congestion_threshold = config_.congestion_queue_threshold_mps;
    int approach = 0;
    int congestion = 0;
    for (std::size_t i = begin; i < n; ++i) {
      approach += speed[i] < approach_threshold ? 1 : 0;
      congestion += speed[i] < congestion_threshold ? 1 : 0;
    }
    const std::size_t road_index = road.id.index();
    road_queued_approach_[road_index] += approach;
    road_queued_congestion_[road_index] += congestion;
    if (lane.link) {
      // Dedicated lane: every queued vehicle belongs to the lane's movement.
      link_queued_approach_[lane.link->index()] += approach;
    } else {
      // Mixed (or exit) lane: gather each slow vehicle's own resolved
      // movement; invalid on exit roads, where no link row exists.
      for (std::size_t i = begin; i < n; ++i) {
        if (speed[i] < approach_threshold) {
          const LinkId movement = veh_next_link_[lane.vehicles.ids()[i].index()];
          if (movement.valid()) link_queued_approach_[movement.index()] += 1;
        }
      }
    }
  }
  if (begin == 1) {
    lane.vehicles.pop_head();
  }
}

void MicroSim::sweep_roads() {
  // When the next step opens with a controller decision, the queued-count
  // memo tables are rebuilt during this sweep — the vehicles are already in
  // cache here, so a reading never needs a separate scan. The predicate is
  // bit-identical to next step's control check (same addition, same compare).
  memo_pending_ = now_ + config_.dt_s >= next_control_;
  if (memo_pending_ && config_.memo_always_rebuild) {
    // Reference path: global zero of every memo row before the rebuild. The
    // default path below instead zeroes rows per road, only for the roads
    // the sweep visits: a road whose bitmap bit is clear is empty with zero
    // rows already, the common case on big grids. Re-zeroing zeros after a
    // global fill changes nothing, so both paths land on identical tables;
    // tests/memo_elision_test.cpp pins that bit for bit.
    std::fill(road_queued_approach_.begin(), road_queued_approach_.end(), 0);
    std::fill(road_queued_congestion_.begin(), road_queued_congestion_.end(), 0);
    std::fill(link_queued_approach_.begin(), link_queued_approach_.end(), 0);
  }
  // The bitmaps are rebuilt from the lanes this sweep moves: the ready links
  // on every tick for next tick's service, the queued and blocked junctions
  // on a memo-rebuild tick for next tick's control step.
  std::fill(ready_links_.begin(), ready_links_.end(), 0);
  if (memo_pending_) {
    std::fill(queued_junctions_.begin(), queued_junctions_.end(), 0);
    std::fill(blocked_junctions_.begin(), blocked_junctions_.end(), 0);
  }
  const std::vector<net::Road>& roads = net_.roads();
  // Set bits are visited in road order, which keeps the lane and memo
  // accesses sequential. Clearing a bit never disturbs the walk: `bits` is a
  // copy of its word.
  for (std::size_t w = 0; w < active_roads_.size(); ++w) {
    for (std::uint64_t bits = active_roads_[w]; bits != 0; bits &= bits - 1) {
      const int bit = std::countr_zero(bits);
      const std::size_t r = w * 64 + static_cast<std::size_t>(bit);
      RoadRt& rt = roads_[r];
      if (memo_pending_) zero_memo_rows(r);
      if (rt.occupancy == 0) {  // occupancy >= vehicles on lanes
        // Rows just re-zeroed and nothing left to move: the road leaves the
        // active set until its occupancy rises again.
        if (memo_pending_) active_roads_[w] &= ~(std::uint64_t{1} << bit);
        continue;
      }
      const net::Road& road = roads[r];
      StreamRng& stream = road_streams_[r];
      // Service's own zone test, with the same arithmetic.
      const double zone_start = road.length_m - config_.service_zone_m;
      const bool approach = rt.to_junction != kNoJunction;
      for (Lane& lane : std::span(lanes_).subspan(rt.lane_begin, rt.lane_count)) {
        // Empty dedicated lanes are common (traffic concentrates on a few
        // movements); skip them before paying the call.
        if (lane.vehicles.empty()) continue;
        sweep_lane(road, lane, stream);
        if (!approach) continue;
        // An approach lane keeps its head through the sweep; its movement is
        // the lane's link, or on a mixed lane the head's own. Branch-free:
        // the zone test is as unpredictable as the lane states.
        const LinkId movement =
            lane.link ? *lane.link : veh_next_link_[lane.vehicles.ids()[0].index()];
        mark(ready_links_, movement.index(), !(lane.vehicles.pos()[0] < zone_start));
      }
      if (memo_pending_) {
        // A visited road's rows are rebuilt; an unvisited one is empty, with
        // zero rows and an occupancy below its capacity (never below 1).
        if (approach) mark(queued_junctions_, rt.to_junction, road_queued_approach_[r] != 0);
        if (rt.from_junction != kNoJunction) {
          mark(blocked_junctions_, rt.from_junction, rt.occupancy >= road.capacity);
        }
      }
    }
  }
}

void MicroSim::zero_memo_rows(std::size_t road_index) {
  road_queued_approach_[road_index] = 0;
  road_queued_congestion_[road_index] = 0;
  for (LinkId lid : net_.links_from(net_.roads()[road_index].id)) {
    link_queued_approach_[lid.index()] = 0;
  }
}

void MicroSim::tick() {
  admit_spawns();
  release_junction_vehicles();
  service_junctions();
  sweep_roads();
  now_ += config_.dt_s;
}

void MicroSim::close_stays() {
  for (const Lane& lane : lanes_) {
    for (std::size_t i = 0; i < lane.vehicles.size(); ++i) {
      vehicles_[lane.vehicles.ids()[i].index()].waiting = lane.vehicles.waiting()[i];
    }
  }
}

}  // namespace abp::microsim
