// Demand generation: exogenous Poisson arrival processes at the entry roads.
//
// Each entry road carries an independent Poisson process whose rate follows
// the active pattern (Table II; the Mixed pattern changes rate every hour).
// The generator pre-draws the arrival time of the next vehicle per road and
// releases SpawnRequests as simulation time passes them, each with a route
// sampled from the Table-I turning probabilities.
#pragma once

#include <limits>
#include <vector>

#include "src/net/network.hpp"
#include "src/traffic/patterns.hpp"
#include "src/traffic/route.hpp"
#include "src/util/rng.hpp"

namespace abp::traffic {

struct DemandConfig {
  PatternKind pattern = PatternKind::II;
  TurningTable turning = TurningTable::paper();
  // Scales all mean inter-arrival times; >1 lightens traffic, <1 intensifies.
  double interarrival_scale = 1.0;
  // When non-empty, overrides `pattern`: arrival rates follow the piecewise
  // schedule (its per-segment scales compose with interarrival_scale).
  DemandSchedule schedule;
};

struct SpawnRequest {
  double time = 0.0;
  Route route;
};

class DemandGenerator {
 public:
  // Reads `network` only here: each entry road's side and straight path.
  DemandGenerator(const net::Network& network, DemandConfig config, std::uint64_t seed);

  // All vehicles arriving in [from_time, to_time), ordered by time.
  // Convenience wrapper over poll_into() that allocates a fresh vector.
  [[nodiscard]] std::vector<SpawnRequest> poll(double from_time, double to_time);

  // Batched polling: clears `out` and fills it with all vehicles arriving in
  // [from_time, to_time), ordered by time. The simulators call this once per
  // tick with a reused buffer, so steady-state demand generation allocates
  // nothing; an O(1) earliest-arrival check skips the per-road process scan
  // entirely on ticks in which no entry road has an arrival due — with the
  // paper's rates that is most ticks, so per-tick demand cost no longer
  // scales with the number of entry roads.
  void poll_into(double from_time, double to_time, std::vector<SpawnRequest>& out);

  [[nodiscard]] std::size_t total_generated() const noexcept { return total_; }

 private:
  struct EntryProcess {
    RoadId road;
    net::Side side = net::Side::North;
    // Junctions on the road's straight path, walked once at construction:
    // the range of a turning vehicle's turn_at draw.
    int straight_junctions = 0;
    double next_arrival = 0.0;
    Rng rng;
  };

  // Mean inter-arrival for a side at a time, honouring the schedule override.
  [[nodiscard]] double mean_at(net::Side side, double time_s) const;

  DemandConfig config_;
  std::vector<EntryProcess> processes_;
  std::size_t total_ = 0;
  // Earliest pending arrival over all entry processes; lets poll_into()
  // early-out without touching per-road state when the window holds nothing.
  double next_due_ = std::numeric_limits<double>::infinity();
};

}  // namespace abp::traffic
