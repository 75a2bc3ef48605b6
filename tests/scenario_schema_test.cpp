// Schema properties, checked over every field the schema lists rather than a
// hand-picked few (src/scenario/scenario_io.hpp):
//   - every scalar path of schema_field_paths() can be set through
//     apply_setting, reads back, and dumps byte-stably;
//   - every single-field mutation of a canonical dump either loads and
//     round-trips byte-stably or fails with a ScenarioIoError whose path is
//     the mutated field or a field of its enclosing object;
//   - apply_setting's grammar: "[]" append, array replace, object merge, the
//     string fallback, unknown paths and the refused version.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "src/scenario/scenario_io.hpp"
#include "src/util/json.hpp"

namespace abp::scenario {
namespace {

// Every list non-empty, every section switched on, two sensor windows at one
// junction (so mutations can make them overlap) and one controller override
// (so no mutation can duplicate it).
ScenarioConfig Populated() {
  ScenarioConfig cfg;
  cfg.name = "populated";
  cfg.description = "every list non-empty";
  cfg.simulator = SimulatorKind::Queue;
  cfg.seed = (1ull << 63) + 1;
  cfg.grid.rows = 2;
  cfg.grid.cols = 4;
  cfg.demand.schedule = traffic::DemandSchedule(
      {{600.0, traffic::PatternKind::I, 0.5}, {300.0, traffic::PatternKind::IV, 2.0}});
  cfg.controller.type = core::ControllerType::CapBp;
  cfg.controller_overrides.push_back({{1, 3}, cfg.controller});
  cfg.watches.push_back({0, 3, net::Side::West, "exit"});
  cfg.faults.capacity.push_back(
      {{0, 1, net::Side::North}, 100.0, std::numeric_limits<double>::infinity(), 0.0});
  cfg.faults.sensors.push_back({{1, 2}, 50.0, 250.0, core::SensorFaultKind::Noise, -2, 3});
  cfg.faults.sensors.push_back({{1, 2}, 300.0, 400.0, core::SensorFaultKind::StuckAt, 0, 0});
  cfg.faults.controllers.push_back({{0, 0}, 300.0, 600.0});
  cfg.guard.enabled = true;
  cfg.detector.enabled = true;
  cfg.surrogate.enabled = true;
  cfg.surrogate.profile = "fit";
  return cfg;
}

// The value at a schema path ("a.b[].c" takes element 0 of b) in a dump.
json::Value* Find(json::Value& doc, const std::string& path) {
  json::Value* at = &doc;
  std::size_t start = 0;
  for (;;) {
    const std::size_t dot = path.find('.', start);
    std::string key = path.substr(start, dot - start);
    const bool element = key.ends_with("[]");
    if (element) key.resize(key.size() - 2);
    json::Value* member = nullptr;
    for (json::Member& m : at->members()) {
      if (m.first == key) member = &m.second;
    }
    if (member == nullptr || (element && member->items().empty())) return nullptr;
    at = element ? &member->items().front() : member;
    if (dot == std::string::npos) return at;
    start = dot + 1;
  }
}

std::string Text(const json::Value& v) { return json::dump(v); }

// Equal values; numbers compare by value, since 3 and 3.0 spell one double.
bool Same(const json::Value& a, const json::Value& b) {
  if (a.is_number() && b.is_number()) return a.as_double() == b.as_double();
  return Text(a) == Text(b);
}

std::vector<json::Value> Candidates(const json::Value& current) {
  std::vector<json::Value> out;
  if (current.is_bool()) {
    out.push_back(json::Value::boolean(!current.as_bool()));
  } else if (current.is_string() && current.as_string() != "inf") {
    for (const char* token :
         {"queue", "micro", "right", "left", "I", "II", "III", "IV", "mixed", "north",
          "east", "south", "west", "util", "cap", "orig", "fixed", "zero", "constant",
          "wstar_mu", "sqrt", "identity", "quadratic", "normalized", "noise", "dropout",
          "stuck_at", "record", "throw", "abort", "text"}) {
      out.push_back(json::Value::string(token));
    }
  } else {
    for (const char* n : {"3", "2", "1", "7", "0", "0.25", "0.5", "-0.5", "100", "1500"}) {
      out.push_back(json::Value::raw_number(n));
    }
    if (current.is_number()) out.push_back(json::Value::string("inf"));
  }
  return out;
}

TEST(ScenarioSchema, EveryScalarPathCanBeSetAndReadsBack) {
  const ScenarioConfig base = Populated();
  int scalars = 0;
  for (const std::string& path : schema_field_paths()) {
    if (path == "version") continue;
    json::Value doc = json::parse(dump_scenario(base));
    const json::Value* current = Find(doc, path);
    ASSERT_NE(current, nullptr) << path;
    if (current->is_object() || current->is_array()) continue;
    ++scalars;
    SCOPED_TRACE(path);
    // A list element's field is set by replacing the list with a copy whose
    // first element carries the new value.
    const std::size_t list_end = path.find("[]");
    const std::string set_path = path.substr(0, list_end);
    bool accepted = false;
    for (const json::Value& candidate : Candidates(*current)) {
      if (Same(candidate, *current)) continue;
      json::Value edited = json::parse(dump_scenario(base));
      *Find(edited, path) = candidate;
      const std::string value =
          list_end == std::string::npos ? Text(candidate) : Text(*Find(edited, set_path));
      ScenarioConfig cfg = base;
      try {
        apply_setting(cfg, set_path, value);
      } catch (const ScenarioIoError&) {
        EXPECT_EQ(dump_scenario(cfg), dump_scenario(base)) << "failed setting changed it";
        continue;
      }
      const std::string once = dump_scenario(cfg);
      json::Value back = json::parse(once);
      EXPECT_TRUE(Same(*Find(back, path), candidate)) << Text(*Find(back, path));
      EXPECT_EQ(dump_scenario(load_scenario(once)), once);
      accepted = true;
      break;
    }
    EXPECT_TRUE(accepted) << "no candidate value was accepted";
  }
  EXPECT_GE(scalars, 118);
}

std::vector<json::Value> Mutations() {
  // "mixed" is a pattern token no schedule segment may use.
  std::vector<json::Value> out = {json::Value::string("bogus"), json::Value::string("mixed"),
                                  json::Value::boolean(true), json::Value(),
                                  json::Value::array(), json::Value::object()};
  for (const char* n : {"-1", "0", "0.5", "1.5", "257", "1e400"}) {
    out.push_back(json::Value::raw_number(n));
  }
  return out;
}

std::string Parent(const std::string& path) {
  const std::size_t cut = path.find_last_of(".[");
  return cut == std::string::npos ? "" : path.substr(0, cut);
}

// The document `root` (whose node `node` sits at `path`) must load and
// round-trip, or fail at `path` or a field of its enclosing object. A sensor
// window overlap names the later window, which may be the other one.
void ExpectLoadsOrFailsAt(const json::Value& root, const std::string& path) {
  const std::string text = json::dump(root);
  try {
    const std::string once = dump_scenario(load_scenario(text));
    EXPECT_EQ(dump_scenario(load_scenario(once)), once) << path;
  } catch (const ScenarioIoError& e) {
    const std::string& at = e.path();
    const std::string enclosing = Parent(path);
    const bool field_of_enclosing = at == enclosing || Parent(at) == enclosing;
    const bool overlap = std::string(e.what()).find(": overlaps ") != std::string::npos;
    EXPECT_TRUE(at == path || field_of_enclosing || overlap)
        << "mutating " << path << " failed at " << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "mutating " << path << " threw a non-path error: " << e.what();
  }
}

void MutateEveryLeaf(json::Value& root, json::Value& node, const std::string& path,
                     int& documents) {
  if (node.is_object()) {
    node.set("zz_extra", json::Value::number(1));
    ExpectLoadsOrFailsAt(root, path.empty() ? "zz_extra" : path + ".zz_extra");
    node.members().pop_back();
    ++documents;
    for (json::Member& m : node.members()) {
      MutateEveryLeaf(root, m.second, path.empty() ? m.first : path + "." + m.first,
                      documents);
    }
    if (!node.members().empty()) return;
  } else if (node.is_array() && !node.items().empty()) {
    for (std::size_t i = 0; i < node.items().size(); ++i) {
      MutateEveryLeaf(root, node.items()[i], path + "[" + std::to_string(i) + "]",
                      documents);
    }
    return;
  }
  const json::Value saved = node;
  for (const json::Value& mutation : Mutations()) {
    node = mutation;
    ExpectLoadsOrFailsAt(root, path);
    ++documents;
  }
  node = saved;
}

TEST(ScenarioSchema, SingleFieldMutationsLoadOrFailAtTheField) {
  int documents = 0;
  for (const ScenarioConfig& cfg : {ScenarioConfig{}, Populated()}) {
    json::Value root = json::parse(dump_scenario(cfg));
    MutateEveryLeaf(root, root, "", documents);
  }
  EXPECT_GE(documents, 2400);
}

TEST(ScenarioSchema, SettingAppendsWithBrackets) {
  ScenarioConfig cfg;
  apply_setting(cfg, "faults.sensors[]", R"({"node": {"row": 0, "col": 1}, "end_s": 60})");
  apply_setting(cfg, "faults.sensors[]", R"({"node": {"row": 0, "col": 1}, "start_s": 60})");
  ASSERT_EQ(cfg.faults.sensors.size(), 2u);
  EXPECT_EQ(cfg.faults.sensors[0].end_s, 60.0);
  EXPECT_EQ(cfg.faults.sensors[1].start_s, 60.0);
  EXPECT_EQ(cfg.faults.sensors[1].end_s, std::numeric_limits<double>::infinity());
  // An appended element's errors name the position it would take.
  try {
    apply_setting(cfg, "faults.sensors[]", "3");
    FAIL() << "number accepted as a sensor fault";
  } catch (const ScenarioIoError& e) {
    EXPECT_STREQ(e.what(), "faults.sensors[2]: expected an object, got a number");
  }
  // The rest of the path after "[]" addresses a field of the new element,
  // which starts from the run-wide controller spec like a file's overrides.
  cfg.controller.type = core::ControllerType::FixedTime;
  apply_setting(cfg, "controller_overrides[].node.col", "2");
  ASSERT_EQ(cfg.controller_overrides.size(), 1u);
  EXPECT_EQ(cfg.controller_overrides[0].node.col, 2);
  EXPECT_EQ(cfg.controller_overrides[0].spec.type, core::ControllerType::FixedTime);
  // A second override at the same junction is refused as a file's would be.
  try {
    apply_setting(cfg, "controller_overrides[].node.col", "2");
    FAIL() << "duplicate override accepted";
  } catch (const ScenarioIoError& e) {
    EXPECT_STREQ(e.what(), "controller_overrides[1]: duplicate override for junction (0, 2)");
  }
  EXPECT_EQ(cfg.controller_overrides.size(), 1u);
}

TEST(ScenarioSchema, SettingReplacesArraysAndMergesObjects) {
  ScenarioConfig cfg = Populated();
  apply_setting(cfg, "demand.segments", R"([{"duration_s": 60, "pattern": "III"}])");
  ASSERT_EQ(cfg.demand.schedule.segments().size(), 1u);
  EXPECT_EQ(cfg.demand.schedule.segments()[0].pattern, traffic::PatternKind::III);
  apply_setting(cfg, "demand.segments", "[]");
  EXPECT_TRUE(cfg.demand.schedule.empty());

  cfg.controller.fixed_time.green_duration_s = 26.0;
  apply_setting(cfg, "controller.fixed_time", R"({"offset_s": 5})");
  EXPECT_EQ(cfg.controller.fixed_time.offset_s, 5.0);
  EXPECT_EQ(cfg.controller.fixed_time.green_duration_s, 26.0);
}

TEST(ScenarioSchema, SettingReadsNonJsonAsAString) {
  ScenarioConfig cfg;
  apply_setting(cfg, "simulator", "queue");
  EXPECT_EQ(cfg.simulator, SimulatorKind::Queue);
  apply_setting(cfg, "name", "rush hour, take 2");
  EXPECT_EQ(cfg.name, "rush hour, take 2");
  // Valid JSON keeps its type: a bare number is not a string.
  try {
    apply_setting(cfg, "name", "42");
    FAIL() << "number accepted as a name";
  } catch (const ScenarioIoError& e) {
    EXPECT_STREQ(e.what(), "name: expected a string, got a number");
  }
  try {
    apply_setting(cfg, "micro.dt_s", "abc");
    FAIL() << "string accepted as a time step";
  } catch (const ScenarioIoError& e) {
    EXPECT_STREQ(e.what(), "micro.dt_s: expected a number, got a string");
  }
}

TEST(ScenarioSchema, BadSettingsFailWithThePathAndChangeNothing) {
  const ScenarioConfig base = Populated();
  const std::string before = dump_scenario(base);
  const struct {
    const char* path;
    const char* value;
    const char* what;
  } cases[] = {
      {"grid.rowz", "3", "grid.rowz: unknown key"},
      {"grid.rows", "0", "grid.rows: must be >= 1"},
      {"grid.rows.count", "3", "grid.rows: expected a number, got an object"},
      {"faults.sensors.start_s", "3", "faults.sensors: expected an array, got an object"},
      {"version", "4", "version: is the document format version, not a setting"},
      {"grid..rows", "3", "grid..rows: empty key in path"},
  };
  for (const auto& c : cases) {
    ScenarioConfig cfg = base;
    try {
      apply_setting(cfg, c.path, c.value);
      ADD_FAILURE() << c.path << " accepted";
    } catch (const ScenarioIoError& e) {
      EXPECT_STREQ(e.what(), c.what);
    }
    EXPECT_EQ(dump_scenario(cfg), before) << c.path;
  }
}

}  // namespace
}  // namespace abp::scenario
