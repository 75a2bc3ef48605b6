// Scenario loader/dumper contract tests (src/scenario/scenario_io.hpp):
// the exact path-addressed error grammar, and the round-trip guarantees
// load(dump(c)) == c and dump(load(dump(c))) == dump(c) byte-for-byte —
// including the hostile corners (64-bit seeds above 2^53, infinite fault
// windows, every enum, per-junction controller overrides).
#include "src/scenario/scenario_io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "src/surrogate/calibration_profile.hpp"
#include "src/util/json.hpp"

namespace abp::scenario {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Asserts that loading `text` throws ScenarioIoError with exactly this
// what() — the docs quote these messages, so their wording is API.
void ExpectLoadError(const std::string& text, const std::string& expected_what) {
  try {
    (void)load_scenario(text);
    FAIL() << "expected ScenarioIoError: " << expected_what;
  } catch (const ScenarioIoError& e) {
    EXPECT_EQ(std::string(e.what()), expected_what);
  }
}

TEST(ScenarioIoTest, EmptyObjectNeedsVersion) {
  ExpectLoadError("{}", "version: required field is missing");
}

TEST(ScenarioIoTest, UnsupportedVersionIsRejected) {
  ExpectLoadError(
      R"({"version": 7})",
      "version: unsupported schema version 7 (this build reads versions 1 through 6)");
  ExpectLoadError(
      R"({"version": 0})",
      "version: unsupported schema version 0 (this build reads versions 1 through 6)");
}

TEST(ScenarioIoTest, OlderSchemaVersionsStillLoad) {
  // Version 1 predates the detector (v2) and surrogate (v4) sections; a v1
  // document loads with both at their disabled defaults and re-dumps at the
  // current version.
  const ScenarioConfig cfg = load_scenario(R"({"version": 1})");
  EXPECT_FALSE(cfg.detector.enabled);
  EXPECT_FALSE(cfg.surrogate.enabled);
  EXPECT_EQ(cfg.surrogate.service_scale, 1.0);
  EXPECT_NE(dump_scenario(cfg).find("\"version\": 6"), std::string::npos);
}

TEST(ScenarioIoTest, RetiredKeysLoadAtTheirRemainingValue) {
  // Schema v5 removed sharding and the queue sim's tick threads, v6 the micro
  // sim's. A v4 file that spells out the single-process values still loads,
  // and its dump carries none of the keys.
  const ScenarioConfig cfg = load_scenario(R"({"version": 4,
    "micro": {"threads": 1},
    "queue": {"threads": 1},
    "shard": {"count": 1, "allow_oversubscribe": true}})");
  const json::Value doc = json::parse(dump_scenario(cfg));
  EXPECT_EQ(doc.find("shard"), nullptr);
  EXPECT_EQ(doc.find("micro")->find("threads"), nullptr);
  EXPECT_EQ(doc.find("queue")->find("threads"), nullptr);
  EXPECT_NO_THROW((void)load_scenario(R"({"version": 6, "micro": {"threads": 1}})"));
  EXPECT_NO_THROW((void)load_scenario(
      R"({"version": 3, "shard": {"allow_oversubscribe": false}})"));
}

TEST(ScenarioIoTest, RetiredKeysRejectRemovedValues) {
  ExpectLoadError(R"({"version": 4, "shard": {"count": 2}})",
                  "shard.count: must be 1 (retired in schema v5)");
  ExpectLoadError(R"({"version": 4, "queue": {"threads": 4}})",
                  "queue.threads: must be 1 (retired in schema v5)");
  ExpectLoadError(R"({"version": 5, "micro": {"threads": 4}})",
                  "micro.threads: must be 1 (retired in schema v6)");
  ExpectLoadError(R"({"version": 4, "shard": {"in_process": true}})",
                  "shard.in_process: unknown key");
}

TEST(ScenarioIoTest, MinimalScenarioLoadsDefaults) {
  const ScenarioConfig cfg = load_scenario(R"({"version": 1})");
  const ScenarioConfig defaults;
  EXPECT_EQ(cfg.grid.rows, defaults.grid.rows);
  EXPECT_EQ(cfg.duration_s, defaults.duration_s);
  EXPECT_EQ(cfg.seed, defaults.seed);
  EXPECT_EQ(cfg.simulator, defaults.simulator);
  EXPECT_TRUE(cfg.faults.empty());
  EXPECT_FALSE(cfg.guard.enabled);
}

TEST(ScenarioIoTest, MalformedJsonReportsLineAndColumn) {
  try {
    (void)load_scenario("{\n  \"version\": 1,\n}");
    FAIL() << "expected json::ParseError";
  } catch (const json::ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(ScenarioIoTest, DeepNestingFailsWithLineAndColumn) {
  // The parser recurses once per level; past the limit it must report a
  // position instead of overflowing the stack.
  try {
    (void)load_scenario(std::string(200000, '['));
    FAIL() << "expected json::ParseError";
  } catch (const json::ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.column(), json::kMaxNestingDepth + 1);
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 256 levels"),
              std::string::npos);
  }
  // Exactly at the limit still parses.
  const std::string deepest = std::string(json::kMaxNestingDepth, '[') +
                              std::string(json::kMaxNestingDepth, ']');
  EXPECT_NO_THROW((void)json::parse(deepest));
}

TEST(ScenarioIoTest, UnknownKeysAreRejectedWithFullPath) {
  ExpectLoadError(R"({"version": 1, "micro": {"sensor": {"quantisation": 4}}})",
                  "micro.sensor.quantisation: unknown key");
  ExpectLoadError(R"({"version": 1, "grdi": {}})", "grdi: unknown key");
}

TEST(ScenarioIoTest, WrongTypesNameBothSides) {
  ExpectLoadError(R"({"version": 1, "duration_s": "long"})",
                  "duration_s: expected a number, got a string");
  ExpectLoadError(R"({"version": 1, "grid": []})",
                  "grid: expected an object, got an array");
  ExpectLoadError(R"({"version": 1, "watches": {}})",
                  "watches: expected an array, got an object");
  ExpectLoadError(R"({"version": 1, "micro": {"dedicated_turn_lanes": 1}})",
                  "micro.dedicated_turn_lanes: expected a boolean, got a number");
}

TEST(ScenarioIoTest, RangeChecksCarryThePath) {
  ExpectLoadError(R"({"version": 1, "grid": {"rows": 0}})", "grid.rows: must be >= 1");
  ExpectLoadError(R"({"version": 1, "duration_s": 0})", "duration_s: must be > 0");
  ExpectLoadError(R"({"version": 1, "seed": -1})", "seed: must be a non-negative integer");
  ExpectLoadError(R"({"version": 1, "seed": 1.5})", "seed: must be a non-negative integer");
  ExpectLoadError(
      R"({"version": 1, "micro": {"sensor": {"detection_probability": 1.5}}})",
      "micro.sensor.detection_probability: must be in [0, 1]");
  ExpectLoadError(R"({"version": 1, "micro": {"threads": 0}})",
                  "micro.threads: must be 1 (retired in schema v6)");
  ExpectLoadError(R"({"version": 1, "micro": {"dt_s": 2.0, "control_interval_s": 1.0}})",
                  "micro.control_interval_s: must be >= dt_s");
  ExpectLoadError(
      R"({"version": 1, "controller": {"fixed_slot": {"period_s": 8, "amber_duration_s": 8}}})",
      "controller.fixed_slot.amber_duration_s: must be in [0, period_s)");
  ExpectLoadError(R"({"version": 1, "controller": {"util": {"alpha": 0}}})",
                  "controller.util.alpha: must be < 0");
}

TEST(ScenarioIoTest, SegmentErrorsAreIndexed) {
  ExpectLoadError(R"({"version": 1, "demand": {"segments": [
        {"duration_s": 600, "pattern": "I"},
        {"duration_s": 600, "pattern": "II"},
        {"duration_s": 600, "interarrival_scale": 0}
      ]}})",
                  "demand.segments[2].interarrival_scale: must be > 0");
  ExpectLoadError(R"({"version": 5, "demand": {"segments": [{"pattern": "mixed"}]}})",
                  "demand.segments[0].pattern: must be a concrete pattern, not \"mixed\"");
}

TEST(ScenarioIoTest, GridSizeIsBounded) {
  ExpectLoadError(R"({"version": 5, "grid": {"rows": 100000, "cols": 100000}})",
                  "grid: rows * cols must not exceed 65536");
  const ScenarioConfig cfg =
      load_scenario(R"({"version": 5, "grid": {"rows": 256, "cols": 256}})");
  EXPECT_EQ(cfg.grid.rows, 256);
}

TEST(ScenarioIoTest, TickCountIsBounded) {
  const std::string problem =
      "duration_s: must not exceed 921600 ticks of the selected backend's step";
  ExpectLoadError(R"({"version": 5, "duration_s": 1e12})", problem);
  // Micro counts in dt_s (0.5 s by default), the queue backend in step_s.
  EXPECT_EQ(load_scenario(R"({"version": 5, "duration_s": 460800})").duration_s, 460800.0);
  ExpectLoadError(R"({"version": 5, "duration_s": 460801})", problem);
  ExpectLoadError(R"({"version": 5, "micro": {"dt_s": 0.25}, "duration_s": 460800})",
                  problem);
  EXPECT_EQ(
      load_scenario(R"({"version": 5, "simulator": "queue", "duration_s": 921600})")
          .duration_s,
      921600.0);
  ExpectLoadError(
      R"({"version": 5, "simulator": "queue", "queue": {"step_s": 0.5},
          "duration_s": 921600})",
      problem);
  // A bad step is reported at its own path, not as a tick count.
  ExpectLoadError(R"({"version": 5, "micro": {"dt_s": 0}})", "micro.dt_s: must be > 0");
}

TEST(ScenarioIoTest, EnabledGuardChecksAtMostOncePerTick) {
  const std::string problem =
      "guard.interval_s: must be >= the selected backend's step when guard.enabled is true";
  // Micro ticks every dt_s (0.5 s by default), the queue backend every step_s.
  ExpectLoadError(R"({"version": 6, "guard": {"enabled": true, "interval_s": 1e-300}})",
                  problem);
  ExpectLoadError(R"({"version": 6, "guard": {"enabled": true, "interval_s": 0.25}})",
                  problem);
  EXPECT_EQ(load_scenario(R"({"version": 6, "guard": {"enabled": true, "interval_s": 0.5}})")
                .guard.interval_s,
            0.5);
  ExpectLoadError(R"({"version": 6, "simulator": "queue",
      "guard": {"enabled": true, "interval_s": 0.5}})",
                  problem);
  // A disabled guard never checks, so its interval is free.
  EXPECT_EQ(load_scenario(R"({"version": 6, "guard": {"interval_s": 1e-300}})")
                .guard.interval_s,
            1e-300);
}

// The refusal names the field and gives the bound it computed.
void ExpectArrivalsRefused(const std::string& text, const std::string& bound) {
  try {
    (void)load_scenario(text);
    FAIL() << "expected the expected-arrivals limit to refuse " << text;
  } catch (const ScenarioIoError& e) {
    EXPECT_EQ(e.path(), "demand.interarrival_scale");
    EXPECT_EQ(std::string(e.what()),
              "demand.interarrival_scale: allows up to " + bound +
                  " expected arrivals over duration_s at the peak rate of every entry "
                  "road; must not exceed 4194304");
  }
}

TEST(ScenarioIoTest, ExpectedArrivalsAreBounded) {
  // 2x2 grid for 120 s at pattern II: 8 entry roads at one arrival per
  // 6e-6 s would queue 1.6e8 vehicles outside the network.
  ExpectArrivalsRefused(R"({"version": 6, "grid": {"rows": 2, "cols": 2},
      "duration_s": 120, "demand": {"interarrival_scale": 1e-6}})",
                        "1.6e+08");
  // A schedule segment's scale counts too: the 3x3 grid's 12 entry roads at
  // pattern I's rates divided by 1e6, for 600 s.
  ExpectArrivalsRefused(R"({"version": 6, "duration_s": 600, "demand": {"segments": [
        {"duration_s": 300, "pattern": "II"},
        {"duration_s": 300, "pattern": "I", "interarrival_scale": 1e-6}]}})",
                        "1.41714e+09");
  // Mixed counts each side at its busiest hour, which no single row matches:
  // 19,000 s on the largest grid is refused at Mixed but loads at pattern I
  // (3.83M), the busiest row.
  ExpectArrivalsRefused(R"({"version": 6, "grid": {"rows": 256, "cols": 256},
      "duration_s": 19000, "demand": {"pattern": "mixed"}})",
                        "4.3776e+06");
  EXPECT_EQ(load_scenario(R"({"version": 6, "grid": {"rows": 256, "cols": 256},
      "duration_s": 19000, "demand": {"pattern": "I"}})").duration_s, 19000.0);
  // The largest grid at pattern I for 2 h (about 1.45M arrivals) still loads.
  const ScenarioConfig big = load_scenario(R"({"version": 6,
      "grid": {"rows": 256, "cols": 256}, "duration_s": 7200,
      "demand": {"pattern": "I"}})");
  EXPECT_EQ(big.grid.rows, 256);
  // The limit is checked wherever a config is validated, --set included.
  ScenarioConfig cfg;
  EXPECT_THROW(apply_setting(cfg, "demand.interarrival_scale", "1e-6"), ScenarioIoError);
  EXPECT_EQ(cfg.demand.interarrival_scale, 1.0);
}

TEST(ScenarioIoTest, EnumErrorsListTheTokens) {
  ExpectLoadError(R"({"version": 1, "controller": {"type": "nope"}})",
                  "controller.type: expected one of \"util\", \"cap\", \"orig\", \"fixed\"");
  ExpectLoadError(R"({"version": 1, "simulator": "meso"})",
                  "simulator: expected one of \"micro\", \"queue\"");
  ExpectLoadError(R"({"version": 1, "guard": {"policy": "panic"}})",
                  "guard.policy: expected one of \"throw\", \"record\", \"abort\"");
}

TEST(ScenarioIoTest, FaultWindowErrorsAreIndexed) {
  ExpectLoadError(R"({"version": 1, "faults": {"sensors": [
        {"node": {"row": 0, "col": 0}, "start_s": 0, "end_s": 100},
        {"node": {"row": 0, "col": 1}, "start_s": 50, "end_s": 50}
      ]}})",
                  "faults.sensors[1].end_s: must exceed start_s");
  ExpectLoadError(
      R"({"version": 1, "faults": {"capacity": [
        {"road": {"row": 0, "col": 0, "side": "north"}, "start_s": 0, "end_s": "forever", "capacity_factor": 0.5}
      ]}})",
      "faults.capacity[0].end_s: expected a number or \"inf\"");
  ExpectLoadError(
      R"({"version": 1, "faults": {"capacity": [
        {"road": {"row": 0, "col": 0, "side": "north"}, "start_s": 0, "end_s": 100, "capacity_factor": 1.5}
      ]}})",
      "faults.capacity[0].capacity_factor: must be in [0, 1]");
}

TEST(ScenarioIoTest, OverlappingSensorWindowsAtOneJunctionAreRejected) {
  ExpectLoadError(R"({"version": 1, "faults": {"sensors": [
        {"node": {"row": 0, "col": 0}, "start_s": 0, "end_s": 100},
        {"node": {"row": 0, "col": 0}, "start_s": 50, "end_s": 150}
      ]}})",
                  "faults.sensors[1]: overlaps faults.sensors[0] at junction (0, 0)");
  // Same windows at different junctions are fine.
  EXPECT_NO_THROW((void)load_scenario(R"({"version": 1, "faults": {"sensors": [
        {"node": {"row": 0, "col": 0}, "start_s": 0, "end_s": 100},
        {"node": {"row": 0, "col": 1}, "start_s": 50, "end_s": 150}
      ]}})"));
}

TEST(ScenarioIoTest, DuplicateControllerOverridesAreRejected) {
  ExpectLoadError(R"({"version": 1, "controller_overrides": [
        {"node": {"row": 0, "col": 1}},
        {"node": {"row": 0, "col": 1}}
      ]})",
                  "controller_overrides[1]: duplicate override for junction (0, 1)");
}

// A grid reference past the last row or column is refused at load, at the
// element's own path, instead of failing mid-setup in make_simulator(). The
// last in-grid row and column load.
TEST(ScenarioIoTest, OutOfGridReferencesAreRefusedAtTheirPath) {
  const std::string grid = R"("grid": {"rows": 3, "cols": 4})";
  ExpectLoadError(R"({"version": 1, )" + grid + R"(, "watches": [
        {"row": 2, "col": 3, "side": "east", "name": "last"},
        {"row": 3, "col": 0, "side": "east", "name": "x"}]})",
                  "watches[1].row: must be < grid.rows (3)");
  ExpectLoadError(R"({"version": 1, )" + grid + R"(, "controller_overrides": [
        {"node": {"row": 0, "col": 4}}]})",
                  "controller_overrides[0].node.col: must be < grid.cols (4)");
  ExpectLoadError(R"({"version": 1, )" + grid + R"(, "faults": {"capacity": [
        {"road": {"row": 3, "col": 0, "side": "north"}}]}})",
                  "faults.capacity[0].road.row: must be < grid.rows (3)");
  ExpectLoadError(R"({"version": 1, )" + grid + R"(, "faults": {"sensors": [
        {"node": {"row": 2, "col": 3}},
        {"node": {"row": 0, "col": 7}, "start_s": 10, "end_s": 20}]}})",
                  "faults.sensors[1].node.col: must be < grid.cols (4)");
  ExpectLoadError(R"({"version": 1, )" + grid + R"(, "faults": {"controllers": [
        {"node": {"row": 5, "col": 0}}]}})",
                  "faults.controllers[0].node.row: must be < grid.rows (3)");

  const ScenarioConfig last = load_scenario(R"({"version": 1, )" + grid + R"(,
    "watches": [{"row": 2, "col": 3, "side": "east", "name": "last"}],
    "controller_overrides": [{"node": {"row": 2, "col": 3}}],
    "faults": {"capacity": [{"road": {"row": 2, "col": 3, "side": "north"}}],
               "sensors": [{"node": {"row": 2, "col": 3}}],
               "controllers": [{"node": {"row": 2, "col": 3}}]}})");
  EXPECT_EQ(last.watches.size(), 1u);
  EXPECT_EQ(last.faults.controllers.size(), 1u);

  // A --set is refused the same way, and leaves the config untouched.
  ScenarioConfig cfg;
  EXPECT_THROW(apply_setting(cfg, "watches[].row", "3"), ScenarioIoError);
  EXPECT_TRUE(cfg.watches.empty());
  try {
    apply_setting(cfg, "faults.sensors[].node.col", "3");
    FAIL() << "expected ScenarioIoError";
  } catch (const ScenarioIoError& e) {
    EXPECT_EQ(std::string(e.what()), "faults.sensors[0].node.col: must be < grid.cols (3)");
  }
}

TEST(ScenarioIoTest, OverridesInheritTheRunWideSpec) {
  const ScenarioConfig cfg = load_scenario(R"({"version": 1,
    "controller": {"type": "fixed", "fixed_time": {"green_duration_s": 26, "amber_duration_s": 4}},
    "controller_overrides": [
      {"node": {"row": 0, "col": 1}, "controller": {"fixed_time": {"offset_s": 44}}}
    ]})");
  ASSERT_EQ(cfg.controller_overrides.size(), 1u);
  const core::ControllerSpec& o = cfg.controller_overrides[0].spec;
  // Only offset_s was written; green/amber come from the run-wide spec.
  EXPECT_EQ(o.fixed_time.green_duration_s, 26.0);
  EXPECT_EQ(o.fixed_time.amber_duration_s, 4.0);
  EXPECT_EQ(o.fixed_time.offset_s, 44.0);
}

TEST(ScenarioIoTest, ErrorExposesThePath) {
  try {
    (void)load_scenario(R"({"version": 1, "grid": {"rows": 0}})");
    FAIL();
  } catch (const ScenarioIoError& e) {
    EXPECT_EQ(e.path(), "grid.rows");
  }
}

TEST(ScenarioIoTest, MissingFileThrows) {
  EXPECT_THROW((void)load_scenario_file("/nonexistent/scenario.json"),
               std::runtime_error);
}

// A document file is read up to json::kMaxDocumentBytes and refused beyond
// it, so an endless stream such as /dev/zero ends in a message, not in
// std::bad_alloc.
TEST(ScenarioIoTest, OversizedFileIsRefusedBeforeParsing) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("abp_oversized_" + std::to_string(::getpid()) + ".json");
  {
    std::ofstream create(path, std::ios::binary);
  }
  // Sparse: the zeros cost no disk.
  std::filesystem::resize_file(path, json::kMaxDocumentBytes);
  // At the limit the file is read whole and fails only as JSON.
  EXPECT_THROW((void)load_scenario_file(path.string()), json::ParseError);
  std::filesystem::resize_file(path, json::kMaxDocumentBytes + 1);
  try {
    (void)load_scenario_file(path.string());
    ADD_FAILURE() << "expected the document size limit to refuse the file";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "scenario file exceeds the 64 MiB document limit: " + path.string());
  }
  // Calibration profiles go through the same reader.
  try {
    (void)surrogate::load_profile_file(path.string());
    ADD_FAILURE() << "expected the document size limit to refuse the profile";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "profile file exceeds the 64 MiB document limit: " + path.string());
  }
  std::filesystem::remove(path);
}

// Builds a config exercising every serializable field with awkward values.
ScenarioConfig FullConfig() {
  ScenarioConfig cfg;
  cfg.name = "full";
  cfg.description = "every field, hostile values";
  cfg.simulator = SimulatorKind::Queue;
  cfg.duration_s = 1234.5678901234567;
  cfg.seed = (1ull << 63) + 1;  // not representable as a double
  cfg.grid.rows = 2;
  cfg.grid.cols = 4;
  cfg.grid.speed_limit_mps = 13.9;
  cfg.demand.pattern = traffic::PatternKind::Mixed;
  cfg.demand.interarrival_scale = 0.75;
  cfg.demand.schedule = traffic::DemandSchedule(
      {{600.0, traffic::PatternKind::I, 0.5}, {300.0, traffic::PatternKind::IV, 2.0}});
  cfg.controller.type = core::ControllerType::CapBp;
  cfg.controller.util.pressure_kind = core::PressureKind::Sqrt;
  cfg.controller.fixed_slot.pressure_kind = core::PressureKind::Normalized;
  cfg.controller.fixed_slot.work_conserving = false;
  cfg.controller.fixed_time.offset_s = 44.0;
  ControllerOverride o;
  o.node = {1, 3};
  o.spec = cfg.controller;
  o.spec.type = core::ControllerType::FixedTime;
  cfg.controller_overrides.push_back(o);
  cfg.micro.sensor.detection_probability = 0.9;
  cfg.micro.vehicle.sigma = 0.25;
  cfg.watches.push_back({0, 3, net::Side::West, "exit"});
  cfg.faults.capacity.push_back({{0, 1, net::Side::North}, 100.0, kInf, 0.0});
  cfg.faults.sensors.push_back(
      {{1, 2}, 50.0, 250.0, core::SensorFaultKind::Noise, -2, 3});
  cfg.faults.controllers.push_back({{0, 0}, 300.0, kInf});
  cfg.guard.enabled = true;
  cfg.guard.policy = GuardPolicy::Record;
  cfg.guard.interval_s = 2.5;
  return cfg;
}

TEST(ScenarioIoTest, RoundTripPreservesEveryField) {
  const ScenarioConfig cfg = FullConfig();
  const ScenarioConfig back = load_scenario(dump_scenario(cfg));
  EXPECT_EQ(back.name, cfg.name);
  EXPECT_EQ(back.description, cfg.description);
  EXPECT_EQ(back.simulator, cfg.simulator);
  EXPECT_EQ(back.duration_s, cfg.duration_s);
  EXPECT_EQ(back.seed, cfg.seed);  // exact above 2^53
  EXPECT_EQ(back.grid.rows, cfg.grid.rows);
  EXPECT_EQ(back.grid.cols, cfg.grid.cols);
  EXPECT_EQ(back.grid.speed_limit_mps, cfg.grid.speed_limit_mps);
  EXPECT_EQ(back.demand.pattern, cfg.demand.pattern);
  ASSERT_EQ(back.demand.schedule.segments().size(), 2u);
  EXPECT_EQ(back.demand.schedule.segments()[1].interarrival_scale, 2.0);
  EXPECT_EQ(back.controller.type, cfg.controller.type);
  EXPECT_EQ(back.controller.util.pressure_kind, cfg.controller.util.pressure_kind);
  EXPECT_EQ(back.controller.fixed_slot.pressure_kind,
            cfg.controller.fixed_slot.pressure_kind);
  EXPECT_EQ(back.controller.fixed_slot.work_conserving,
            cfg.controller.fixed_slot.work_conserving);
  EXPECT_EQ(back.controller.fixed_time.offset_s, cfg.controller.fixed_time.offset_s);
  ASSERT_EQ(back.controller_overrides.size(), 1u);
  EXPECT_EQ(back.controller_overrides[0].node.row, 1);
  EXPECT_EQ(back.controller_overrides[0].node.col, 3);
  EXPECT_EQ(back.controller_overrides[0].spec.type, core::ControllerType::FixedTime);
  EXPECT_EQ(back.micro.vehicle.sigma, cfg.micro.vehicle.sigma);
  ASSERT_EQ(back.watches.size(), 1u);
  EXPECT_EQ(back.watches[0].side, net::Side::West);
  EXPECT_EQ(back.watches[0].name, "exit");
  ASSERT_EQ(back.faults.capacity.size(), 1u);
  EXPECT_EQ(back.faults.capacity[0].end_s, kInf);
  EXPECT_EQ(back.faults.capacity[0].capacity_factor, 0.0);
  ASSERT_EQ(back.faults.sensors.size(), 1u);
  EXPECT_EQ(back.faults.sensors[0].kind, core::SensorFaultKind::Noise);
  EXPECT_EQ(back.faults.sensors[0].bias, -2);
  ASSERT_EQ(back.faults.controllers.size(), 1u);
  EXPECT_EQ(back.faults.controllers[0].recover_s, kInf);
  EXPECT_TRUE(back.guard.enabled);
  EXPECT_EQ(back.guard.policy, GuardPolicy::Record);
  EXPECT_EQ(back.guard.interval_s, cfg.guard.interval_s);
}

TEST(ScenarioIoTest, DumpIsByteStableUnderReload) {
  const std::string once = dump_scenario(FullConfig());
  EXPECT_EQ(dump_scenario(load_scenario(once)), once);
  const std::string defaults = dump_scenario(ScenarioConfig{});
  EXPECT_EQ(dump_scenario(load_scenario(defaults)), defaults);
}

TEST(ScenarioIoTest, SchemaFieldPathsCoverTheKeyTables) {
  const std::vector<std::string> paths = schema_field_paths();
  const auto has = [&paths](const char* p) {
    for (const std::string& s : paths) {
      if (s == p) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("version"));
  EXPECT_TRUE(has("grid.rows"));
  EXPECT_TRUE(has("demand.segments[].pattern"));
  EXPECT_TRUE(has("demand.turning.north.right"));
  EXPECT_TRUE(has("controller.util.pressure"));
  EXPECT_TRUE(has("controller_overrides[].node.row"));
  EXPECT_TRUE(has("micro.vehicle.sigma"));
  EXPECT_TRUE(has("faults.capacity[].road.side"));
  EXPECT_TRUE(has("guard.interval_s"));
}

}  // namespace
}  // namespace abp::scenario
