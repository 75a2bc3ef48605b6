// A2: ablation — which of UTIL-BP's ingredients buy the improvement?
//
// UTIL-BP (src/core/bp_util.hpp) rests on three design choices; each maps to
// a controller knob:
//   (a) hysteresis threshold g* (Eq. 12)        -> GStarPolicy::WStarMu vs Zero
//   (b) full/empty sentinels alpha/beta (Eq. 8) -> paper values vs near-zero
//   (c) fixed-length slots vs mini-slot control -> UTIL-BP vs CAP-BP/ORIG-BP
// The bench also reports the fixed-time baseline as the floor.
#include <iostream>

#include "bench/bench_util.hpp"
#include "src/scenario/scenario.hpp"
#include "src/core/gain.hpp"
#include "src/stats/report.hpp"

namespace {

struct Variant {
  std::string label;
  abp::scenario::ScenarioConfig cfg;
};

}  // namespace

int main() {
  using namespace abp;
  bench::print_header("Ablation A2: UTIL-BP design features (Pattern I, 1 h)");

  const double duration = 3600.0 * bench::duration_scale();
  constexpr std::uint64_t kSeed = 2020;

  std::vector<Variant> variants;
  {
    Variant v{"UTIL-BP (paper: Eq.12 g*, alpha=-1, beta=-2)",
              scenario::paper_scenario(traffic::PatternKind::I, core::ControllerType::UtilBp)};
    variants.push_back(std::move(v));
  }
  {
    Variant v{"UTIL-BP, g*=0 (laziest keep-rule)",
              scenario::paper_scenario(traffic::PatternKind::I, core::ControllerType::UtilBp)};
    v.cfg.controller.util.gstar_policy = core::GStarPolicy::Zero;
    variants.push_back(std::move(v));
  }
  {
    Variant v{"UTIL-BP, weak sentinels (alpha=-0.001, beta=-0.002)",
              scenario::paper_scenario(traffic::PatternKind::I, core::ControllerType::UtilBp)};
    v.cfg.controller.util.alpha = -0.001;
    v.cfg.controller.util.beta = -0.002;
    variants.push_back(std::move(v));
  }
  {
    Variant v{"UTIL-BP, inverted sentinels (beta > alpha)",
              scenario::paper_scenario(traffic::PatternKind::I, core::ControllerType::UtilBp)};
    v.cfg.controller.util.alpha = -2.0;
    v.cfg.controller.util.beta = -1.0;
    variants.push_back(std::move(v));
  }
  {
    Variant v{"CAP-BP, period 16 s (fixed-length reference)",
              scenario::paper_scenario(traffic::PatternKind::I, core::ControllerType::CapBp,
                                       16.0)};
    variants.push_back(std::move(v));
  }
  {
    Variant v{"ORIG-BP, period 16 s (no capacity awareness)",
              scenario::paper_scenario(traffic::PatternKind::I,
                                       core::ControllerType::OriginalBp, 16.0)};
    variants.push_back(std::move(v));
  }
  {
    Variant v{"FIXED-TIME (15 s green per phase)",
              scenario::paper_scenario(traffic::PatternKind::I,
                                       core::ControllerType::FixedTime)};
    variants.push_back(std::move(v));
  }
  {
    Variant v{"UTIL-BP on mixed lanes (HOL blocking possible)",
              scenario::paper_scenario(traffic::PatternKind::I, core::ControllerType::UtilBp)};
    v.cfg.micro.dedicated_turn_lanes = false;
    variants.push_back(std::move(v));
  }
  for (core::PressureKind kind : {core::PressureKind::Sqrt, core::PressureKind::Quadratic,
                                  core::PressureKind::Normalized}) {
    Variant v{"UTIL-BP, pressure f = " + core::pressure_kind_name(kind),
              scenario::paper_scenario(traffic::PatternKind::I, core::ControllerType::UtilBp)};
    v.cfg.controller.util.pressure_kind = kind;
    variants.push_back(std::move(v));
  }

  stats::TextTable table({"Variant", "Avg queuing [s]", "Completed", "In network",
                          "Ambers @J(0,2)"});
  auto csv = bench::open_csv("ablation_features");
  CsvWriter w(csv);
  w.row({"variant", "avg_queuing_s", "completed", "in_network", "transitions"});

  for (Variant& v : variants) {
    v.cfg.duration_s = duration;
    v.cfg.seed = kSeed;
    const stats::RunResult r = scenario::run_scenario(v.cfg);
    table.add_row({v.label, stats::TextTable::num(r.metrics.average_queuing_time_s()),
                   std::to_string(r.metrics.completed),
                   std::to_string(r.metrics.in_network_at_end),
                   std::to_string(r.phase_traces[2].transition_count())});
    w.typed_row(v.label, r.metrics.average_queuing_time_s(), r.metrics.completed,
                r.metrics.in_network_at_end, r.phase_traces[2].transition_count());
  }
  table.print(std::cout);

  // Substrate sensitivity: how does the UTIL-BP vs CAP-BP margin react when
  // the junction hardware discharges below the modeled mu = 1 veh/s?
  // (0 = serve at mu exactly, the paper's Section-II assumption.)
  bench::print_header("Ablation A2b: physical saturation-flow sensitivity (Pattern I, 1 h)");
  stats::TextTable sat_table({"Saturation flow [veh/s]", "UTIL-BP avg queuing [s]",
                              "CAP-BP(16) avg queuing [s]", "UTIL-BP completed",
                              "CAP-BP completed"});
  auto sat_csv = bench::open_csv("ablation_saturation");
  CsvWriter sw(sat_csv);
  sw.row({"saturation_vps", "utilbp_avg_queuing_s", "capbp_avg_queuing_s",
          "utilbp_completed", "capbp_completed"});
  // Values sit on the simulator's grant-headway grid (multiples of dt=0.5 s):
  // mu=1 -> 1.0 s, 0.667 -> 1.5 s, 0.5 -> 2.0 s between grants per movement.
  for (double sat : {0.0, 0.667, 0.5}) {
    double q[2];
    std::size_t done[2];
    int idx = 0;
    for (core::ControllerType type :
         {core::ControllerType::UtilBp, core::ControllerType::CapBp}) {
      scenario::ScenarioConfig cfg =
          scenario::paper_scenario(traffic::PatternKind::I, type, 16.0);
      cfg.duration_s = duration;
      cfg.seed = kSeed;
      cfg.micro.saturation_flow_vps = sat;
      const stats::RunResult r = scenario::run_scenario(cfg);
      q[idx] = r.metrics.average_queuing_time_s();
      done[idx] = r.metrics.completed;
      ++idx;
    }
    sat_table.add_row({sat == 0.0 ? "mu (idealized)" : stats::TextTable::num(sat, 2),
                       stats::TextTable::num(q[0]), stats::TextTable::num(q[1]),
                       std::to_string(done[0]), std::to_string(done[1])});
    sw.typed_row(sat, q[0], q[1], done[0], done[1]);
  }
  sat_table.print(std::cout);
  return 0;
}
