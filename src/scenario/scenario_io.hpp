// Declarative scenario layer: JSON files <-> ScenarioConfig, validated and
// round-trippable.
//
// This is the boundary between "workloads are C++ code" and "workloads are
// data". A scenario file describes everything a run needs — topology, demand
// (including time-varying segment schedules), controller selection with
// per-junction overrides, both backends' parameters, watches, the full
// PR-6 fault schedule and the runtime guard — and loads into the same
// ScenarioConfig value the programmatic API uses, so every determinism
// guarantee (fixed-seed bit-equality at any jobs count) holds for
// file-driven runs unchanged. The scenario library under scenarios/ plus
// abp_cli --scenario are built on this; docs/SCENARIOS.md is the schema
// reference (field-by-field semantics, defaults, validation rules,
// determinism contract) and is lint-checked against schema_field_paths().
// Each field's key, rule and place in the document is written once, in the
// describe() functions of scenario_io.cpp (machinery in describe.hpp); the
// loader, validate(), the dumper, schema_field_paths() and apply_setting()
// all walk them.
//
// Error contract: every load failure throws ScenarioIoError whose what() is
// exactly "<dotted.path>: <problem>" — e.g.
//   demand.segments[2].interarrival_scale: must be > 0
//   micro.sensor.quantisation: unknown key
// so a failing file pinpoints the offending field without a stack trace.
// Malformed JSON (not valid JSON at all) throws json::ParseError with
// line/column instead, since there is no field path to report.
//
// Round-trip contract: dump_scenario() serializes every field in a fixed
// order and canonical number form (shortest round-trip doubles, exact 64-bit
// integers, infinity spelled "inf"). Every valid config c dumps, and
// load(dump(c)) == c field-for-field and dump(load(dump(c))) == dump(c)
// byte-for-byte. The one field outside the file is
// MicroSimConfig::memo_always_rebuild, the reference path memo_elision_test
// compares against; it cannot change results, and it loads as false.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/scenario/scenario_config.hpp"

namespace abp::scenario {

// The schema version this build writes (the file's required top-level
// "version" field). Bumped only for schema changes; the loader also accepts
// kScenarioSchemaVersionMin, since every older document is a valid newer one
// (new sections are optional with behavior-preserving defaults). Version 2
// added the optional "detector" section (online changepoint detection);
// version 3 the optional "shard" section (multi-process sharding); version 4
// the optional "surrogate" section (calibrated queue-backend rescaling).
// Version 5 retired "shard" and "queue.threads", version 6 "micro.threads":
// the loader still accepts them at the one value that remains (shard.count 1,
// queue.threads 1, micro.threads 1, either shard.allow_oversubscribe), and
// the dumper no longer writes them.
inline constexpr int kScenarioSchemaVersion = 6;
inline constexpr int kScenarioSchemaVersionMin = 1;

// Load/validate failure with the dotted path of the offending field.
// what() == "<path>: <problem>".
class ScenarioIoError : public std::invalid_argument {
 public:
  ScenarioIoError(std::string path, const std::string& problem)
      : std::invalid_argument(path + ": " + problem), path_(std::move(path)) {}

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

// Parses and validates one scenario document. Throws ScenarioIoError on any
// schema violation (unknown key, wrong type, out-of-range value, overlapping
// fault windows, ...) and json::ParseError on malformed JSON.
[[nodiscard]] ScenarioConfig load_scenario(std::string_view json_text);

// Checks every field's rule with the loader's path-addressed messages
// ("detector.window_samples: must be >= 1"), disabled sections included.
// load_scenario, dump_scenario, apply_setting and sim::make_simulator all
// call it, so programmatic configs get the checks files get. Throws
// ScenarioIoError.
void validate(const ScenarioConfig& config);

// Reads the file and calls load_scenario. Throws std::runtime_error when the
// file cannot be opened.
[[nodiscard]] ScenarioConfig load_scenario_file(const std::string& file_path);

// Serializes the full config (defaults included) in the canonical byte-stable
// form, after validate(). Throws ScenarioIoError for an invalid config.
[[nodiscard]] std::string dump_scenario(const ScenarioConfig& config);

// Sets one field by its schema path: "grid.rows" with value "8" loads
// {"grid": {"rows": 8}} over `config` with the scenario loader, then
// validates. VALUE is JSON; text that is not valid JSON is read as a string
// ("queue" == "\"queue\""). Objects merge into the current value, arrays
// replace it, and a path segment ending in "[]" appends one element built
// from the rest of the path ("faults.sensors[]" with an object value). The
// version cannot be set. On error throws ScenarioIoError and leaves
// `config` unchanged. abp_cli --set is built on this.
void apply_setting(ScenarioConfig& config, std::string_view path, std::string_view value);

// Every dotted field path of the schema, depth first in document order —
// array-valued fields use a "[]" suffix on the array segment (e.g.
// "demand.segments[].duration_s"). Walks the same field descriptions the
// loader, validator and dumper walk, so the list cannot drift from what
// load_scenario accepts. Consumed by abp_cli --print-schema-fields and the
// docs lint (tools/check_scenario_docs.py).
[[nodiscard]] std::vector<std::string> schema_field_paths();

}  // namespace abp::scenario
