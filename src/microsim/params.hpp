// Tunable parameters of the microscopic simulator.
#pragma once

#include "src/core/sensor.hpp"

namespace abp::microsim {

// Car-following (Krauss model, SUMO's default) and vehicle geometry.
struct VehicleParams {
  double length_m = 4.5;
  double min_gap_m = 1.0;
  // Maximum acceleration / comfortable deceleration.
  double accel_mps2 = 2.6;
  double decel_mps2 = 4.5;
  // Driver reaction time.
  double tau_s = 1.0;
  // Krauss dawdling factor in [0,1]: fraction of one acceleration step
  // randomly subtracted from the desired speed each update.
  double sigma = 0.3;
};

struct MicroSimConfig {
  // Integration step of the vehicle dynamics.
  double dt_s = 0.5;
  // Dedicated turning lanes (the paper's assumption, Section IV Q4): one
  // FIFO lane per feasible movement, so a red movement never blocks a green
  // one. Setting this to false models a single mixed lane per road, where
  // head-of-line blocking becomes possible — the extension the paper leaves
  // as future work.
  bool dedicated_turn_lanes = true;
  // Controllers are invoked every control_interval_s (the paper's mini-slot).
  double control_interval_s = 1.0;
  // Interval between samples pushed to registered road watches.
  double sample_interval_s = 10.0;
  // Time a vehicle needs to traverse the junction box after being served.
  // Must not exceed the amber duration, which exists to clear the box.
  double junction_crossing_s = 2.0;
  // Distance upstream of the stop line within which the head vehicle counts
  // as waiting at the junction and may be served. Service then happens at
  // the movement's physical saturation flow; the zone buffers car-following
  // start-up losses so the microscopic discharge matches that flow instead
  // of being throttled by acceleration from standstill.
  double service_zone_m = 25.0;
  // Physical saturation flow of a movement in veh/s — the green-time
  // discharge rate the junction hardware actually achieves, corresponding to
  // SUMO's ~1800-2000 veh/h/lane. The controllers' *modeled* mu (the link
  // service_rate, the paper's mu = 1) is what enters the gain computations;
  // the physical grant headway is min(modeled mu, saturation flow).
  // Set to 0 (the default) to serve at the modeled mu exactly — the paper's
  // Section-II service assumption, under which the headline comparison
  // reproduces most faithfully. bench_ablation_features sweeps this knob to
  // show how the margin reacts to less ideal junction hardware.
  double saturation_flow_vps = 0.0;
  // Speed at which vehicles are released onto the downstream road.
  double insertion_speed_mps = 10.0;
  // Speed below which a vehicle counts as queued (SUMO's waiting-time notion).
  double waiting_speed_threshold_mps = 0.1;
  // Queue-detector thresholds feeding the controllers. Incoming approaches
  // use a generous threshold so a queue that is rolling forward during
  // discharge still registers as demand; outgoing roads use SUMO's halting
  // threshold (1.39 m/s = 5 km/h) so only standing congestion counts as
  // back-pressure — a downstream road in free flow exerts none.
  double approach_queue_threshold_mps = 7.0;
  double congestion_queue_threshold_mps = 1.39;
  // Detector imperfection applied to every queue reading handed to the
  // controllers (occupancy/capacity admission state stays physical). Perfect
  // by default; bench_sensor_noise sweeps it.
  core::SensorModel sensor;
  VehicleParams vehicle;
  // Debug/reference knob: force the pre-elision memo-table path that zeroes
  // every road/link row globally before each rebuild, instead of the default
  // per-road path (zero only the rows of roads in the sweep's active set,
  // which holds every road that is occupied or whose rows are not yet
  // re-zeroed). The two paths are pinned bit-identical by
  // tests/memo_elision_test.cpp; this flag exists for that pin and for
  // bisecting, not for scenarios (scenario_io does not serialize it).
  bool memo_always_rebuild = false;
};

}  // namespace abp::microsim
