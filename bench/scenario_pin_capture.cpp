// scenario_pin_capture: regenerates the scenario library's golden pins.
//
// Runs every scenario file named on the command line at its declared
// duration and prints the pin document consumed by
// tests/scenario_library_test.cpp to stdout:
//
//   scenario_pin_capture scenarios/*.json > scenarios/golden_pins.json
//
// Doubles are recorded as C99 hex-float strings ("%a"), so a pin is exact to
// the bit — the golden test compares with == after strtod, no tolerance.
// Regenerate pins only when a change is *supposed* to alter trajectories
// (physics, controller logic, RNG layout) and say so in the commit; an
// unexpected diff here is the determinism alarm going off.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "src/scenario/scenario.hpp"
#include "src/scenario/scenario_io.hpp"
#include "src/stats/run_result.hpp"
#include "src/util/json.hpp"

namespace {

abp::json::Value hex_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return abp::json::Value::string(buf);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: scenario_pin_capture SCENARIO.json...\n");
    return 2;
  }
  using namespace abp;
  json::Value pins = json::Value::object();
  for (int i = 1; i < argc; ++i) {
    try {
      const scenario::ScenarioConfig cfg = scenario::load_scenario_file(argv[i]);
      if (cfg.name.empty()) {
        std::fprintf(stderr, "scenario_pin_capture: %s: scenario has no name\n",
                     argv[i]);
        return 1;
      }
      const stats::RunResult r = scenario::run_scenario(cfg);
      json::Value pin = json::Value::object();
      pin.set("simulator", json::Value::string(
                               cfg.simulator == scenario::SimulatorKind::Micro
                                   ? "micro"
                                   : "queue"));
      pin.set("duration_s", json::Value::number(cfg.duration_s));
      pin.set("generated", json::Value::number(
                               static_cast<std::uint64_t>(r.metrics.generated)));
      pin.set("entered",
              json::Value::number(static_cast<std::uint64_t>(r.metrics.entered)));
      pin.set("completed",
              json::Value::number(static_cast<std::uint64_t>(r.metrics.completed)));
      pin.set("in_network_at_end",
              json::Value::number(
                  static_cast<std::uint64_t>(r.metrics.in_network_at_end)));
      pin.set("avg_queuing_s_hex", hex_double(r.metrics.average_queuing_time_s()));
      pin.set("avg_travel_s_hex", hex_double(r.metrics.average_travel_time_s()));
      pin.set("guard_violations",
              json::Value::number(
                  static_cast<std::uint64_t>(r.guard.violations.size())));
      pins.set(cfg.name, std::move(pin));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "scenario_pin_capture: %s: %s\n", argv[i], e.what());
      return 1;
    }
  }
  std::fputs(json::dump(pins).c_str(), stdout);
  return 0;
}
