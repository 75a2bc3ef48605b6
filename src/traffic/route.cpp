#include "src/traffic/route.hpp"

#include <stdexcept>

namespace abp::traffic {

LinkId route_link(const net::Network& network, const Route& route, std::size_t junction,
                  RoadId road) {
  const net::Turn desired =
      (route.turn != net::Turn::Straight && junction == static_cast<std::size_t>(route.turn_at))
          ? route.turn
          : net::Turn::Straight;
  if (const std::optional<LinkId> link = network.find_link(road, desired)) return *link;
  for (net::Turn fallback : {net::Turn::Straight, net::Turn::Left, net::Turn::Right}) {
    if (const std::optional<LinkId> link = network.find_link(road, fallback)) return *link;
  }
  throw std::invalid_argument("road " + network.road(road).name +
                              " has no feasible movement to continue the route");
}

int straight_path_junctions(const net::Network& network, RoadId entry) {
  // An exit road has no movement, so the walk ends there or at the first
  // junction without a straight movement.
  int count = 0;
  for (std::optional<LinkId> link = network.find_link(entry, net::Turn::Straight); link;
       link = network.find_link(network.link(*link).to_road, net::Turn::Straight)) {
    ++count;
  }
  return count;
}

Route sample_route(RoadId entry, const TurningTable::Probabilities& p, int straight_junctions,
                   Rng& rng) {
  const double weights[3] = {p.left, p.straight(), p.right};
  Route route{.entry = entry, .turn = static_cast<net::Turn>(rng.discrete(weights))};
  if (route.turn != net::Turn::Straight && straight_junctions > 0) {
    route.turn_at = static_cast<int>(rng.uniform_int(0, straight_junctions - 1));
  }
  return route;
}

}  // namespace abp::traffic
