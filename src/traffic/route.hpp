// Vehicle routing through the network.
//
// Per the paper's workload: a vehicle entering the network goes straight
// through every junction except at most one, where it turns left or right
// (Table I probabilities); the turning junction is chosen uniformly among the
// junctions on its straight-ahead path. After the turn it continues straight
// until it exits the network.
//
// So a Route is three values: the entry road, the turn and the 0-based index
// of the turning junction. Simulators resolve the movement at each junction a
// vehicle reaches with route_link(), the one place that decides which link a
// route takes.
#pragma once

#include "src/net/geometry.hpp"
#include "src/net/network.hpp"
#include "src/traffic/patterns.hpp"
#include "src/util/rng.hpp"

namespace abp::traffic {

struct Route {
  // Road on which the vehicle enters the network.
  RoadId entry;
  // Turn taken at junction `turn_at` (0-based along the path); Straight
  // means a pure through route and `turn_at` is ignored.
  net::Turn turn = net::Turn::Straight;
  int turn_at = 0;

  bool operator==(const Route&) const = default;
};

// The link a vehicle on `route` takes at the end of `road`, its `junction`-th
// junction (0-based). The desired movement is the route's turn at `turn_at`
// and straight elsewhere. Incomplete junctions (e.g. a T-junction on the
// straight-ahead path) may not offer it; then the first of straight, left,
// right that exists is taken. The order depends only on the network, so a
// route's link sequence is fixed at spawn. Throws std::invalid_argument when
// no movement leaves `road` (net::validate reports such a road).
[[nodiscard]] LinkId route_link(const net::Network& network, const Route& route,
                                std::size_t junction, RoadId road);

// Number of junctions on the straight-ahead path from `entry` to the exit.
[[nodiscard]] int straight_path_junctions(const net::Network& network, RoadId entry);

// Samples a route per the paper's workload model: draw the turn from the
// entry side's Table-I probabilities `p`, then, for a turning vehicle, the
// turning junction uniformly among the `straight_junctions` junctions of the
// entry's straight path.
[[nodiscard]] Route sample_route(RoadId entry, const TurningTable::Probabilities& p,
                                 int straight_junctions, Rng& rng);

}  // namespace abp::traffic
