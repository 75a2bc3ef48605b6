#include "src/queuesim/queue_sim.hpp"

#include <algorithm>
#include <bit>

namespace abp::queuesim {

QueueSim::QueueSim(const net::Network& network, QueueSimConfig config,
                   std::vector<core::ControllerPtr> controllers,
                   traffic::DemandGenerator& demand)
    : RunCore(network, std::move(controllers), demand, config.step_s, config.control_interval_s,
              config.sample_interval_s),
      config_(config) {
  roads_.resize(net_.roads().size());
  links_.resize(net_.links().size());
  road_queued_.assign(net_.roads().size(), 0);
  for (const net::Road& road : net_.roads()) roads_[road.id.index()].exit = road.is_exit();
  link_rows_.reserve(net_.links().size());
  for (const net::Link& link : net_.links()) {
    const net::Road& to = net_.road(link.to_road);
    const double rate_dt = link.service_rate * config_.step_s;
    link_rows_.push_back({static_cast<std::uint32_t>(link.from_road.index()),
                          static_cast<std::uint32_t>(to.id.index()), rate_dt,
                          std::max(1.0, rate_dt), to.free_flow_time_s()});
  }
  transit_roads_.assign((net_.roads().size() + 63) / 64, 0);
  transit_due_.assign(net_.roads().size(), 0.0);
}

double QueueSim::link_credit(LinkId link) const { return links_[link.index()].credit; }

void QueueSim::phase_changed(std::size_t junction) {
  for (LinkId lid : net_.intersections()[junction].links) links_[lid.index()].credit = 0.0;
}

void QueueSim::route_vehicle_into_queue(VehicleId vid, RoadId road) {
  Vehicle& v = vehicles_[vid.index()];
  links_[traffic::route_link(net_, v.route, v.junction, road).index()].queue.push_back(vid);
  road_queued_[road.index()] += 1;
  v.stay_start = tick_;
}

double QueueSim::queue_seconds(const Vehicle& v) {
  while (queued_seconds_.size() <= v.queued_ticks) {
    queued_seconds_.push_back(queued_seconds_.back() + config_.step_s);
  }
  return queued_seconds_[v.queued_ticks];
}

void QueueSim::admit_spawns() {
  take_spawns(now_, now_ + config_.step_s);
  // Admit buffered vehicles while their entry road has space.
  for (std::size_t k = 0; k < entry_buffers_.size(); ++k) {
    const RoadId entry = net_.entry_roads()[k];
    std::deque<VehicleId>& buffer = entry_buffers_[k];
    RoadState& road = roads_[entry.index()];
    const int capacity = road_capacity_[entry.index()];
    while (!buffer.empty() && road.occupancy < capacity) {
      const VehicleId vid = buffer.front();
      buffer.pop_front();
      enter(vid);
      road.occupancy += 1;
      push_transit(entry.index(), now_ + net_.road(entry).free_flow_time_s(), vid);
    }
    if (!buffer.empty()) {
      result_.metrics.entry_blocked_time_s +=
          static_cast<double>(buffer.size()) * config_.step_s;
    }
  }
}

void QueueSim::arbitrate_and_serve() {
  for (std::size_t w = 0; w < green_links_.size(); ++w) {
    for (std::uint64_t bits = green_links_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t lid = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      const LinkRow& link = link_rows_[lid];
      LinkQueueState& lq = links_[lid];
      RoadState& upstream = roads_[link.from_road];
      RoadState& downstream = roads_[link.to_road];
      const int downstream_cap = road_capacity_[link.to_road];
      // Service credit replenishes at mu while green; the cap prevents banking
      // service across steps in which the queue was empty.
      lq.credit = std::min(lq.credit + link.rate_dt, link.burst);
      // Arrival stamps use the pre-advance tick time.
      const double arrive = now_ + link.to_free_flow_s;
      while (lq.credit >= 1.0 && !lq.queue.empty() && downstream.occupancy < downstream_cap) {
        lq.credit -= 1.0;
        road_queued_[link.from_road] -= 1;
        upstream.occupancy -= 1;
        downstream.occupancy += 1;
        const VehicleId vid = lq.queue.front();
        lq.queue.pop_front();
        Vehicle& v = vehicles_[vid.index()];
        v.queued_ticks += tick_ - v.stay_start;
        v.junction += 1;
        push_transit(link.to_road, arrive, vid);
      }
    }
  }
}

void QueueSim::drain_due_transits() {
  for (std::size_t w = 0; w < transit_roads_.size(); ++w) {
    for (std::uint64_t bits = transit_roads_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t r = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      if (transit_due_[r] > now_) continue;
      RoadState& state = roads_[r];
      while (!state.transit.empty() && state.transit.front().arrive_time <= now_) {
        const VehicleId vid = state.transit.front().vehicle;
        state.transit.pop_front();
        if (state.exit) {
          state.occupancy -= 1;
          complete(vid);
        } else {
          route_vehicle_into_queue(vid, RoadId(static_cast<RoadId::value_type>(r)));
        }
      }
      if (state.transit.empty()) {
        transit_roads_[w] &= ~(std::uint64_t{1} << (r % 64));
      } else {
        transit_due_[r] = state.transit.front().arrive_time;
      }
    }
  }
}

void QueueSim::tick() {
  admit_spawns();
  arbitrate_and_serve();
  now_ += config_.step_s;
  // Completions happen in road order, so the floating-point metric sums
  // accumulate in exit-road order.
  drain_due_transits();
  // Every vehicle now in a movement queue has queued for this tick, including
  // those the drain just routed in: a stay that starts at tick t and is
  // served at tick u counts u - t ticks.
  tick_ += 1;
}

void QueueSim::close_stays() {
  for (const LinkQueueState& lq : links_) {
    for (VehicleId vid : lq.queue) {
      Vehicle& v = vehicles_[vid.index()];
      v.queued_ticks += tick_ - v.stay_start;
    }
  }
}

}  // namespace abp::queuesim
