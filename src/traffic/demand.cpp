#include "src/traffic/demand.hpp"

#include <algorithm>
#include <limits>

namespace abp::traffic {

DemandGenerator::DemandGenerator(const net::Network& network, DemandConfig config,
                                 std::uint64_t seed)
    : config_(config) {
  Rng master(seed);
  for (RoadId road : network.entry_roads()) {
    EntryProcess p{.road = road,
                   .side = network.road(road).arrival_side,
                   .straight_junctions = straight_path_junctions(network, road),
                   .next_arrival = 0.0,
                   .rng = master.split()};
    // First arrival: one full inter-arrival gap from time zero, so an empty
    // network warms up the same way in both simulators.
    p.next_arrival = p.rng.exponential(mean_at(p.side, 0.0));
    next_due_ = std::min(next_due_, p.next_arrival);
    processes_.push_back(std::move(p));
  }
}

double DemandGenerator::mean_at(net::Side side, double time_s) const {
  if (!config_.schedule.empty()) {
    return config_.schedule.mean_interarrival(side, time_s) * config_.interarrival_scale;
  }
  return mean_interarrival(config_.pattern, side, time_s, config_.interarrival_scale);
}

std::vector<SpawnRequest> DemandGenerator::poll(double from_time, double to_time) {
  std::vector<SpawnRequest> spawns;
  poll_into(from_time, to_time, spawns);
  return spawns;
}

void DemandGenerator::poll_into(double from_time, double to_time,
                                std::vector<SpawnRequest>& out) {
  out.clear();
  // Fast path: nothing anywhere is due before the window closes, so no
  // process state can change — skip the per-road scan.
  if (next_due_ >= to_time) return;
  double next_due = std::numeric_limits<double>::infinity();
  for (EntryProcess& p : processes_) {
    while (p.next_arrival < to_time) {
      if (p.next_arrival >= from_time) {
        out.push_back({p.next_arrival,
                       sample_route(p.road, config_.turning.entering_from(p.side),
                                    p.straight_junctions, p.rng)});
        ++total_;
      }
      p.next_arrival += p.rng.exponential(mean_at(p.side, p.next_arrival));
    }
    next_due = std::min(next_due, p.next_arrival);
  }
  next_due_ = next_due;
  std::sort(out.begin(), out.end(),
            [](const SpawnRequest& a, const SpawnRequest& b) { return a.time < b.time; });
}

}  // namespace abp::traffic
