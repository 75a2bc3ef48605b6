#include "src/surrogate/calibration_profile.hpp"

#include <stdexcept>

#include "src/scenario/describe.hpp"
#include "src/util/json.hpp"

namespace abp::surrogate {
namespace {

// Document format version of the profile file itself (independent of the
// scenario schema version).
constexpr int kProfileVersion = 1;

}  // namespace

template <typename V>
void describe(V& v, CalibrationProfile& p) {
  using namespace scenario::schema;
  int version = kProfileVersion;
  v.field("version", version);
  v.field("name", p.name);
  v.field("scenario", p.scenario);
  v.field("service_scale", p.service_scale, kPositive);
  v.field("transit_scale", p.transit_scale, kPositive);
  v.field("capacity_scale", p.capacity_scale, kPositive);
  v.field("objective", p.objective);
  v.field("evaluations", p.evaluations, kNonNegative);
  v.field("replications", p.replications, kNonNegative);
  v.field("duration_s", p.duration_s, kNonNegative);
  v.field("seed", p.seed);
}

std::string dump_profile(const CalibrationProfile& profile) {
  return json::dump(scenario::schema::dump_object(profile));
}

CalibrationProfile load_profile(std::string_view json_text) {
  CalibrationProfile p;
  scenario::schema::load_document(json::parse(json_text), p, [](int v) {
    if (v != kProfileVersion) {
      throw scenario::ScenarioIoError(
          "version", "unsupported profile version " + std::to_string(v) +
                         " (this build reads version " + std::to_string(kProfileVersion) +
                         ")");
    }
  });
  scenario::schema::validate_object(p, {});
  return p;
}

CalibrationProfile load_profile_file(const std::string& file_path) {
  return load_profile(json::read_file(file_path, "profile"));
}

void apply_profile(const CalibrationProfile& profile,
                   scenario::ScenarioConfig& config) {
  config.surrogate.enabled = true;
  config.surrogate.service_scale = profile.service_scale;
  config.surrogate.transit_scale = profile.transit_scale;
  config.surrogate.capacity_scale = profile.capacity_scale;
  config.surrogate.profile = profile.name;
}

}  // namespace abp::surrogate
