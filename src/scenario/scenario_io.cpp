#include "src/scenario/scenario_io.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "src/scenario/describe.hpp"
#include "src/util/json.hpp"

namespace abp::scenario::schema {
namespace {

constexpr Token<SimulatorKind> kSimulatorTokens[] = {{"micro", SimulatorKind::Micro},
                                                     {"queue", SimulatorKind::Queue}};
constexpr Token<net::Handedness> kHandednessTokens[] = {
    {"left", net::Handedness::LeftHand}, {"right", net::Handedness::RightHand}};
constexpr Token<traffic::PatternKind> kPatternTokens[] = {
    {"I", traffic::PatternKind::I},
    {"II", traffic::PatternKind::II},
    {"III", traffic::PatternKind::III},
    {"IV", traffic::PatternKind::IV},
    {"mixed", traffic::PatternKind::Mixed}};
constexpr Token<net::Side> kSideTokens[] = {{"north", net::Side::North},
                                            {"east", net::Side::East},
                                            {"south", net::Side::South},
                                            {"west", net::Side::West}};
constexpr Token<core::ControllerType> kControllerTypeTokens[] = {
    {"util", core::ControllerType::UtilBp},
    {"cap", core::ControllerType::CapBp},
    {"orig", core::ControllerType::OriginalBp},
    {"fixed", core::ControllerType::FixedTime}};
constexpr Token<core::GStarPolicy> kGStarTokens[] = {
    {"wstar_mu", core::GStarPolicy::WStarMu},
    {"zero", core::GStarPolicy::Zero},
    {"constant", core::GStarPolicy::Constant}};
constexpr Token<core::PressureKind> kPressureTokens[] = {
    {"identity", core::PressureKind::Identity},
    {"sqrt", core::PressureKind::Sqrt},
    {"quadratic", core::PressureKind::Quadratic},
    {"normalized", core::PressureKind::Normalized}};
constexpr Token<core::SensorFaultKind> kSensorFaultTokens[] = {
    {"dropout", core::SensorFaultKind::Dropout},
    {"stuck_at", core::SensorFaultKind::StuckAt},
    {"noise", core::SensorFaultKind::Noise}};
constexpr Token<GuardPolicy> kGuardPolicyTokens[] = {{"throw", GuardPolicy::Throw},
                                                     {"record", GuardPolicy::Record},
                                                     {"abort", GuardPolicy::Abort}};

// 16x the largest grid any test, bench or workload runs (64x64); far larger
// grids only end in std::bad_alloc.
constexpr std::int64_t kMaxGridCells = 65536;

// 32x the longest run any test, bench, example or workload makes (4 h of
// mixed demand at dt 0.5 s: 28,800 ticks); far longer runs only grow their
// series without end.
constexpr double kMaxTicks = 921600;

// 2^22: about 80x the expected arrivals of the largest run any test, bench or
// workload makes (dense8x8_micro: about 52k). Demand far beyond what the grid
// can admit only grows the spawn buffers until std::bad_alloc.
constexpr double kMaxArrivals = 4194304;

// An upper bound on a run's expected arrivals: duration_s times the summed
// rate of every entry road, each side at the smallest mean inter-arrival its
// pattern, Mixed cycle or schedule segments can reach.
double expected_arrivals_bound(const ScenarioConfig& c) {
  const traffic::DemandConfig& d = c.demand;
  double rate = 0.0;
  for (const Token<net::Side>& side : kSideTokens) {
    double mean = std::numeric_limits<double>::infinity();
    if (!d.schedule.empty()) {
      for (const traffic::ScheduleSegment& s : d.schedule.segments()) {
        mean = std::min(mean, traffic::arrival_row(s.pattern).on(side.value) *
                                  s.interarrival_scale);
      }
    } else if (d.pattern == traffic::PatternKind::Mixed) {
      for (traffic::PatternKind k : {traffic::PatternKind::I, traffic::PatternKind::II,
                                     traffic::PatternKind::III, traffic::PatternKind::IV}) {
        mean = std::min(mean, traffic::arrival_row(k).on(side.value));
      }
    } else {
      mean = traffic::arrival_row(d.pattern).on(side.value);
    }
    const bool north_south = side.value == net::Side::North || side.value == net::Side::South;
    const int entry_roads = north_south ? c.grid.cols : c.grid.rows;
    rate += entry_roads / (mean * d.interarrival_scale);
  }
  return c.duration_s * rate;
}

std::string arrivals_problem(double bound) {
  std::ostringstream out;
  out << "allows up to " << bound
      << " expected arrivals over duration_s at the peak rate of every entry road; "
         "must not exceed 4194304";
  return out.str();
}

// The first grid reference past the grid's last row or column, in document
// order, as the (path, problem) a refusal reports; both empty when every
// reference lies inside the grid. Formatted only for a refusal. A negative
// index fails its own field rule first.
std::pair<std::string, std::string> out_of_grid_reference(const ScenarioConfig& c) {
  std::pair<std::string, std::string> found;
  auto visit = [&](const char* list, std::size_t i, const char* ref, int row, int col) {
    if (!found.first.empty() || (row < c.grid.rows && col < c.grid.cols)) return;
    const bool bad_row = row >= c.grid.rows;
    found.first = std::string(list) + "[" + std::to_string(i) + "]" + ref +
                  (bad_row ? ".row" : ".col");
    found.second = bad_row ? "must be < grid.rows (" + std::to_string(c.grid.rows) + ")"
                           : "must be < grid.cols (" + std::to_string(c.grid.cols) + ")";
  };
  for (std::size_t i = 0; i < c.controller_overrides.size(); ++i) {
    const GridNodeRef& n = c.controller_overrides[i].node;
    visit("controller_overrides", i, ".node", n.row, n.col);
  }
  for (std::size_t i = 0; i < c.watches.size(); ++i) {
    visit("watches", i, "", c.watches[i].row, c.watches[i].col);
  }
  for (std::size_t i = 0; i < c.faults.capacity.size(); ++i) {
    const GridRoadRef& r = c.faults.capacity[i].road;
    visit("faults.capacity", i, ".road", r.row, r.col);
  }
  for (std::size_t i = 0; i < c.faults.sensors.size(); ++i) {
    const GridNodeRef& n = c.faults.sensors[i].node;
    visit("faults.sensors", i, ".node", n.row, n.col);
  }
  for (std::size_t i = 0; i < c.faults.controllers.size(); ++i) {
    const GridNodeRef& n = c.faults.controllers[i].node;
    visit("faults.controllers", i, ".node", n.row, n.col);
  }
  return found;
}

// The v3/v4 "shard" section: a single-process run, which is all that
// remains. allow_oversubscribe never changed results, so either value loads.
struct RetiredShard {
  int count = 1;
  bool allow_oversubscribe = false;
};

}  // namespace

// --- Descriptions, leaves first ----------------------------------------------

template <typename V>
void describe(V& v, RetiredShard& s) {
  v.retired("count", s.count, 5);
  v.field("allow_oversubscribe", s.allow_oversubscribe);
}

template <typename V>
void describe(V& v, net::GridConfig& g) {
  v.field("rows", g.rows, kAtLeastOne);
  v.field("cols", g.cols, kAtLeastOne);
  v.field("road_length_m", g.road_length_m, kPositive);
  v.field("boundary_length_m", g.boundary_length_m, kPositive);
  v.field("speed_limit_mps", g.speed_limit_mps, kPositive);
  v.field("capacity", g.capacity, kAtLeastOne);
  v.field("service_rate", g.service_rate, kPositive);
  v.field("handedness", g.handedness, kHandednessTokens);
  v.check("", std::int64_t{g.rows} * g.cols <= kMaxGridCells,
          "rows * cols must not exceed 65536");
}

template <typename V>
void describe(V& v, traffic::TurningTable::Probabilities& p) {
  v.field("right", p.right, kUnitInterval);
  v.field("left", p.left, kUnitInterval);
  v.check("", !(p.right + p.left > 1.0), "right + left must not exceed 1");
}

template <typename V>
void describe(V& v, traffic::TurningTable& t) {
  for (const Token<net::Side>& side : kSideTokens) {
    v.object(side.name, t.by_side[static_cast<std::size_t>(side.value)]);
  }
}

template <typename V>
void describe(V& v, traffic::ScheduleSegment& s) {
  v.field("duration_s", s.duration_s, kPositive);
  v.field("pattern", s.pattern, kPatternTokens);
  v.check("pattern", s.pattern != traffic::PatternKind::Mixed,
          "must be a concrete pattern, not \"mixed\"");
  v.field("interarrival_scale", s.interarrival_scale, kPositive);
}

template <typename V>
void describe(V& v, traffic::DemandConfig& d) {
  v.field("pattern", d.pattern, kPatternTokens);
  v.field("interarrival_scale", d.interarrival_scale, kPositive);
  v.object("turning", d.turning);
  // DemandSchedule keeps its segments behind a checking constructor, so they
  // are described through a copy that only the loader writes back. An empty
  // list means "no schedule", like an absent one.
  std::vector<traffic::ScheduleSegment> segments = d.schedule.segments();
  v.array("segments", segments, traffic::ScheduleSegment{});
  if constexpr (std::is_same_v<V, Loader>) {
    d.schedule = segments.empty() ? traffic::DemandSchedule{}
                                  : traffic::DemandSchedule(std::move(segments));
  }
}

template <typename V>
void describe(V& v, core::UtilBpConfig& u) {
  v.field("alpha", u.alpha, kNegative);
  v.field("beta", u.beta, kNegative);
  v.field("amber_duration_s", u.amber_duration_s, kNonNegative);
  v.field("gstar_policy", u.gstar_policy, kGStarTokens);
  v.field("gstar_constant", u.gstar_constant);
  v.field("pressure", u.pressure_kind, kPressureTokens);
}

template <typename V>
void describe(V& v, core::FixedSlotBpConfig& s) {
  v.field("period_s", s.period_s, kPositive);
  v.field("amber_duration_s", s.amber_duration_s);
  v.check("amber_duration_s",
          s.amber_duration_s >= 0.0 && s.amber_duration_s < s.period_s,
          "must be in [0, period_s)");
  v.field("work_conserving", s.work_conserving);
  v.field("pressure", s.pressure_kind, kPressureTokens);
}

template <typename V>
void describe(V& v, core::FixedTimeConfig& f) {
  v.field("green_duration_s", f.green_duration_s, kPositive);
  v.field("amber_duration_s", f.amber_duration_s, kNonNegative);
  v.field("offset_s", f.offset_s, kNonNegative);
}

template <typename V>
void describe(V& v, core::ControllerSpec& c) {
  v.field("type", c.type, kControllerTypeTokens);
  v.object("util", c.util);
  v.object("fixed_slot", c.fixed_slot);
  v.object("fixed_time", c.fixed_time);
}

template <typename V>
void describe(V& v, GridNodeRef& n) {
  v.field("row", n.row, kNonNegative);
  v.field("col", n.col, kNonNegative);
}

template <typename V>
void describe(V& v, ControllerOverride& o) {
  v.object("node", o.node);
  v.object("controller", o.spec);
}

template <typename V>
void describe(V& v, core::SensorModel& s) {
  v.field("detection_probability", s.detection_probability, kUnitInterval);
  v.field("quantization", s.quantization, kAtLeastOne);
  v.field("dropout_probability", s.dropout_probability, kUnitInterval);
}

template <typename V>
void describe(V& v, microsim::VehicleParams& p) {
  v.field("length_m", p.length_m, kPositive);
  v.field("min_gap_m", p.min_gap_m, kNonNegative);
  v.field("accel_mps2", p.accel_mps2, kPositive);
  v.field("decel_mps2", p.decel_mps2, kPositive);
  v.field("tau_s", p.tau_s, kPositive);
  v.field("sigma", p.sigma, kUnitInterval);
}

template <typename V>
void describe(V& v, microsim::MicroSimConfig& m) {
  v.field("dt_s", m.dt_s, kPositive);
  v.field("dedicated_turn_lanes", m.dedicated_turn_lanes);
  v.field("control_interval_s", m.control_interval_s);
  v.check("control_interval_s", m.control_interval_s >= m.dt_s, "must be >= dt_s");
  v.field("sample_interval_s", m.sample_interval_s, kPositive);
  v.field("junction_crossing_s", m.junction_crossing_s, kNonNegative);
  v.field("service_zone_m", m.service_zone_m, kNonNegative);
  v.field("saturation_flow_vps", m.saturation_flow_vps, kNonNegative);
  v.field("insertion_speed_mps", m.insertion_speed_mps, kPositive);
  v.field("waiting_speed_threshold_mps", m.waiting_speed_threshold_mps, kNonNegative);
  v.field("approach_queue_threshold_mps", m.approach_queue_threshold_mps, kNonNegative);
  v.field("congestion_queue_threshold_mps", m.congestion_queue_threshold_mps,
          kNonNegative);
  int threads = 1;
  v.retired("threads", threads, 6);
  v.object("sensor", m.sensor);
  v.object("vehicle", m.vehicle);
}

template <typename V>
void describe(V& v, queuesim::QueueSimConfig& q) {
  v.field("step_s", q.step_s, kPositive);
  v.field("control_interval_s", q.control_interval_s);
  v.check("control_interval_s", q.control_interval_s >= q.step_s, "must be >= step_s");
  v.field("sample_interval_s", q.sample_interval_s, kPositive);
  int threads = 1;
  v.retired("threads", threads, 5);
}

template <typename V>
void describe(V& v, WatchSpec& w) {
  v.field("row", w.row, kNonNegative);
  v.field("col", w.col, kNonNegative);
  v.field("side", w.side, kSideTokens);
  v.field("name", w.name);
}

template <typename V>
void describe(V& v, GridRoadRef& r) {
  v.field("row", r.row, kNonNegative);
  v.field("col", r.col, kNonNegative);
  v.field("side", r.side, kSideTokens);
}

template <typename V>
void describe(V& v, CapacityFault& f) {
  v.object("road", f.road);
  v.field("start_s", f.start_s, kNonNegative);
  v.time("end_s", f.end_s);
  v.check("end_s", f.end_s > f.start_s, "must exceed start_s");
  v.field("capacity_factor", f.capacity_factor, kUnitInterval);
}

template <typename V>
void describe(V& v, SensorFault& f) {
  v.object("node", f.node);
  v.field("start_s", f.start_s, kNonNegative);
  v.time("end_s", f.end_s);
  v.check("end_s", f.end_s > f.start_s, "must exceed start_s");
  v.field("kind", f.kind, kSensorFaultTokens);
  v.field("bias", f.bias);
  v.field("noise_magnitude", f.noise_magnitude, kNonNegative);
}

template <typename V>
void describe(V& v, ControllerFault& f) {
  v.object("node", f.node);
  v.field("fail_s", f.fail_s, kNonNegative);
  v.time("recover_s", f.recover_s);
  v.check("recover_s", f.recover_s > f.fail_s, "must exceed fail_s");
}

template <typename V>
void describe(V& v, FaultSchedule& f) {
  v.array("capacity", f.capacity, CapacityFault{});
  v.array("sensors", f.sensors, SensorFault{});
  v.array("controllers", f.controllers, ControllerFault{});
}

template <typename V>
void describe(V& v, GuardConfig& g) {
  v.field("enabled", g.enabled);
  v.field("policy", g.policy, kGuardPolicyTokens);
  v.field("interval_s", g.interval_s, kPositive);
}

template <typename V>
void describe(V& v, detect::DetectorConfig& d) {
  v.field("enabled", d.enabled);
  v.field("window_samples", d.window_samples, kAtLeastOne);
  v.field("warmup_samples", d.warmup_samples, kAtLeastOne);
  v.field("drift", d.drift, kNonNegative);
  v.field("threshold", d.threshold, kPositive);
  v.field("min_sigma", d.min_sigma, kPositive);
  v.field("min_links", d.min_links, kAtLeastOne);
  v.field("fuse_window_s", d.fuse_window_s, kPositive);
  v.field("cooldown_s", d.cooldown_s, kNonNegative);
  v.field("adapt", d.adapt);
}

template <typename V>
void describe(V& v, SurrogateConfig& s) {
  v.field("enabled", s.enabled);
  v.field("service_scale", s.service_scale, kPositive);
  v.field("transit_scale", s.transit_scale, kPositive);
  v.field("capacity_scale", s.capacity_scale, kPositive);
  v.field("profile", s.profile);
}

template <typename V>
void describe(V& v, ScenarioConfig& c) {
  // load_document checks the version before anything else is read; dumps
  // always write the current one.
  int version = kScenarioSchemaVersion;
  v.field("version", version);
  v.field("name", c.name);
  v.field("description", c.description);
  v.field("simulator", c.simulator, kSimulatorTokens);
  v.field("duration_s", c.duration_s, kPositive);
  v.field("seed", c.seed);
  v.object("grid", c.grid);
  v.object("demand", c.demand);
  v.object("controller", c.controller);
  // Overrides start from the run-wide spec, not from factory defaults: a
  // corridor override that only sets fixed_time.offset_s keeps the scenario's
  // amber/green timings.
  v.array("controller_overrides", c.controller_overrides,
          ControllerOverride{.node = {}, .spec = c.controller});
  v.object("micro", c.micro);
  v.object("queue", c.queue);
  // After the step fields, so a bad dt_s or step_s is reported at its own path.
  const double step_s =
      c.simulator == SimulatorKind::Micro ? c.micro.dt_s : c.queue.step_s;
  v.check("duration_s", c.duration_s / step_s <= kMaxTicks,
          "must not exceed 921600 ticks of the selected backend's step");
  // The message is formatted only for a refusal: describe() runs on every
  // load, validation and dump.
  const double arrivals = expected_arrivals_bound(c);
  const bool arrivals_ok = arrivals <= kMaxArrivals;
  v.check("demand.interarrival_scale", arrivals_ok,
          arrivals_ok ? "" : arrivals_problem(arrivals).c_str());
  v.array("watches", c.watches, WatchSpec{});
  v.object("faults", c.faults);
  // Refused here rather than when make_simulator() resolves the reference.
  const auto [grid_ref, grid_ref_problem] = out_of_grid_reference(c);
  v.check(grid_ref.c_str(), grid_ref.empty(), grid_ref_problem.c_str());
  v.object("guard", c.guard);
  // A guard checks at most once per tick; after each check it walks its next
  // check time past `now` one interval at a time, which a sub-tick interval
  // turns into a walk without end.
  v.check("guard.interval_s", !c.guard.enabled || c.guard.interval_s >= step_s,
          "must be >= the selected backend's step when guard.enabled is true");
  v.object("detector", c.detector);
  v.object("surrogate", c.surrogate);
  RetiredShard shard;
  v.retired("shard", shard);
}

namespace {

// Lists every field's dotted path, depth first; "[]" stands for a list's
// elements.
class PathLister {
 public:
  PathLister(std::vector<std::string>& out, std::string prefix)
      : out_(out), prefix_(std::move(prefix)) {}

  template <typename... A>
  void field(const char* key, A&&...) {
    out_.push_back(prefix_ + key);
  }
  void time(const char* key, double) { field(key); }
  template <typename T>
  void object(const char* key, T& x) {
    field(key);
    PathLister inner(out_, prefix_ + key + ".");
    describe(inner, x);
  }
  template <typename T>
  void array(const char* key, std::vector<T>&, const T& prototype) {
    field(key);
    T x = prototype;
    PathLister inner(out_, prefix_ + key + "[].");
    describe(inner, x);
  }
  void check(const char*, bool, const char*) {}
  template <typename... A>
  void retired(const char*, A&&...) {}

 private:
  std::vector<std::string>& out_;
  std::string prefix_;
};

}  // namespace
}  // namespace abp::scenario::schema

namespace abp::scenario {
namespace {

[[noreturn]] void fail(const std::string& path, const std::string& problem) {
  throw ScenarioIoError(path, problem);
}

std::string junction(const GridNodeRef& node) {
  return "junction (" + std::to_string(node.row) + ", " + std::to_string(node.col) + ")";
}

}  // namespace

void validate(const ScenarioConfig& config) {
  schema::validate_object(config, schema::Path{});
  // The two rules that relate list elements to each other.
  const std::vector<ControllerOverride>& overrides = config.controller_overrides;
  for (std::size_t i = 0; i < overrides.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (overrides[j].node.row == overrides[i].node.row &&
          overrides[j].node.col == overrides[i].node.col) {
        fail("controller_overrides[" + std::to_string(i) + "]",
             "duplicate override for " + junction(overrides[i].node));
      }
    }
  }
  // Overlapping sensor windows at one junction would make "which fault is
  // active" order-dependent.
  const std::vector<SensorFault>& sensors = config.faults.sensors;
  for (std::size_t i = 0; i < sensors.size(); ++i) {
    for (std::size_t j = i + 1; j < sensors.size(); ++j) {
      const SensorFault& a = sensors[i];
      const SensorFault& b = sensors[j];
      if (a.node.row != b.node.row || a.node.col != b.node.col) continue;
      if (a.start_s < b.end_s && b.start_s < a.end_s) {
        fail("faults.sensors[" + std::to_string(j) + "]",
             "overlaps faults.sensors[" + std::to_string(i) + "] at " + junction(a.node));
      }
    }
  }
}

ScenarioConfig load_scenario(std::string_view json_text) {
  ScenarioConfig cfg;
  schema::load_document(json::parse(json_text), cfg, [](int v) {
    if (v < kScenarioSchemaVersionMin || v > kScenarioSchemaVersion) {
      fail("version", "unsupported schema version " + std::to_string(v) +
                          " (this build reads versions " +
                          std::to_string(kScenarioSchemaVersionMin) + " through " +
                          std::to_string(kScenarioSchemaVersion) + ")");
    }
  });
  validate(cfg);
  return cfg;
}

ScenarioConfig load_scenario_file(const std::string& file_path) {
  return load_scenario(json::read_file(file_path, "scenario"));
}

std::string dump_scenario(const ScenarioConfig& config) {
  validate(config);
  return json::dump(schema::dump_object(config));
}

void apply_setting(ScenarioConfig& config, std::string_view path,
                   std::string_view value) {
  // Build {"a": {"b": VALUE}} from "a.b". A key written "b[]" holds a
  // one-element list that is appended to b instead of replacing it; the rest
  // of the path addresses that element.
  json::Value overlay = json::Value::object();
  json::Value* at = &overlay;
  const json::Value* append = nullptr;
  for (std::size_t start = 0;;) {
    const std::size_t dot = path.find('.', start);
    std::string key(path.substr(start, dot - start));
    const bool element = key.ends_with("[]");
    if (element) key.resize(key.size() - 2);
    if (key.empty()) fail(std::string(path), "empty key in path");
    if (at == &overlay && key == "version") {
      fail("version", "is the document format version, not a setting");
    }
    at->set(key, element ? json::Value::array() : json::Value());
    at = &at->members().back().second;
    if (element) {
      if (append == nullptr) append = at;
      at->push_back(json::Value());
      at = &at->items().back();
    }
    if (dot == std::string_view::npos) break;
    *at = json::Value::object();
    start = dot + 1;
  }
  try {
    *at = json::parse(value);
  } catch (const json::ParseError&) {
    *at = json::Value::string(std::string(value));
  }
  ScenarioConfig next = config;
  schema::load_object(overlay, next, schema::Path{}, append);
  validate(next);
  config = std::move(next);
}

std::vector<std::string> schema_field_paths() {
  std::vector<std::string> out;
  ScenarioConfig defaults;
  schema::PathLister lister(out, "");
  schema::describe(lister, defaults);
  return out;
}

}  // namespace abp::scenario
