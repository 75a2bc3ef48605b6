// Krauss lane-kernel microbench: ns per vehicle-step of the scalar reference
// vs lane_update, the sweep's own dispatch (src/microsim/lane_kernel.hpp: the
// fused pass up to kFusedLaneMax vehicles, the vectorized passes above), at
// lane occupancies {1, 4, 16, 64} — the serial floor every other layer of the
// micro-sim multiplies, measured as an artifact instead of prose.
//
// Workload: a platoon released toward a stop line on a 500 m road. The head
// parks at the line and the platoon compresses into a standing queue, so a
// measurement interval covers the free-flow regime (sqrt fast path /
// vectorized sqrt), the approach, the per-tick head clamp and the queued
// crawl — the same mix the simulator's sweep sees. Positions reset to the
// release state on a fixed tick cadence (identical for both variants, cost
// included in both timings). Before timing, both variants are driven in
// lockstep and verified bit-identical, so the table can never quietly
// compare diverged computations.
//
// Output: stdout table, CSV mirror under ./bench_results/, and a JSON report
// (argv[1], default BENCH_krauss_kernel.json) following the throughput
// bench's schema: the machine's hardware_concurrency, then rows keyed
// (occupancy, variant) with ns_per_vehicle_step as the measurement and
// vehicle_steps as the load descriptor. ABP_FAST=1 scales the tick counts
// down 10x.
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <bit>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/microsim/lane_kernel.hpp"
#include "src/util/rng.hpp"

namespace abp::bench {
namespace {

constexpr double kDt = 0.5;
constexpr double kSpeedLimit = 13.9;
constexpr double kRoadLength = 500.0;
constexpr int kResetEvery = 600;  // ticks between releases (~queue re-forms)

struct Row {
  int occupancy = 0;
  std::string variant;
  long long vehicle_steps = 0;
  double wall_seconds = 0.0;
  [[nodiscard]] double ns_per_vehicle_step() const {
    return vehicle_steps > 0 ? wall_seconds * 1e9 / static_cast<double>(vehicle_steps)
                             : 0.0;
  }
};

struct LaneState {
  std::vector<double> pos;
  std::vector<double> speed;
};

LaneState release_state(int n) {
  using microsim::VehicleParams;
  const VehicleParams p;
  LaneState s;
  s.pos.resize(static_cast<std::size_t>(n));
  s.speed.resize(static_cast<std::size_t>(n));
  double front = 300.0;
  for (int i = 0; i < n; ++i) {
    s.pos[static_cast<std::size_t>(i)] = front;
    front -= p.length_m + p.min_gap_m + 2.0;
    s.speed[static_cast<std::size_t>(i)] = 10.0;
  }
  return s;
}

// One tick of either variant over the lane state.
void tick(bool kernel, LaneState& s, StreamRng& rng, microsim::LaneKernelScratch& scratch) {
  const microsim::VehicleParams p;
  const std::size_t n = s.pos.size();
  if (kernel) {
    microsim::lane_update(s.pos.data(), s.speed.data(), n, kSpeedLimit, kRoadLength,
                          /*is_exit=*/false, p, kDt, &rng, scratch);
  } else {
    microsim::lane_update_reference(s.pos.data(), s.speed.data(), n, kSpeedLimit,
                                    kRoadLength, /*is_exit=*/false, p, kDt, &rng);
  }
}

// Lockstep equality check: both variants over the full reset cadence must
// stay bit-identical, or the comparison below is meaningless.
void verify_equivalence(int n) {
  LaneState ref = release_state(n);
  LaneState ker = release_state(n);
  StreamRng rng_ref(2020, static_cast<std::uint64_t>(n));
  StreamRng rng_ker(2020, static_cast<std::uint64_t>(n));
  microsim::LaneKernelScratch scratch;
  for (int t = 0; t < kResetEvery; ++t) {
    tick(false, ref, rng_ref, scratch);
    tick(true, ker, rng_ker, scratch);
    for (std::size_t i = 0; i < ref.pos.size(); ++i) {
      if (std::bit_cast<std::uint64_t>(ref.pos[i]) !=
              std::bit_cast<std::uint64_t>(ker.pos[i]) ||
          std::bit_cast<std::uint64_t>(ref.speed[i]) !=
              std::bit_cast<std::uint64_t>(ker.speed[i])) {
        std::fprintf(stderr, "FATAL: variants diverged (n=%d tick=%d slot=%zu)\n", n, t,
                     i);
        std::exit(1);
      }
    }
  }
}

Row measure(bool kernel, int n, long long target_vehicle_steps) {
  Row row;
  row.occupancy = n;
  row.variant = kernel ? "lane_update" : "scalar";
  LaneState s = release_state(n);
  StreamRng rng(2020, static_cast<std::uint64_t>(n));
  microsim::LaneKernelScratch scratch;
  const long long ticks = target_vehicle_steps / n;
  // Warmup: one full reset cadence (pulls code+data hot, sizes the scratch).
  for (int t = 0; t < kResetEvery; ++t) tick(kernel, s, rng, scratch);
  s = release_state(n);
  row.wall_seconds = timed_seconds([&] {
    for (long long t = 0; t < ticks; ++t) {
      if (t % kResetEvery == 0) {
        // Re-release the platoon so the regime mix stays fixed; same cadence
        // and cost on both variants.
        LaneState fresh = release_state(n);
        std::copy(fresh.pos.begin(), fresh.pos.end(), s.pos.begin());
        std::copy(fresh.speed.begin(), fresh.speed.end(), s.speed.begin());
      }
      tick(kernel, s, rng, scratch);
    }
  });
  row.vehicle_steps = ticks * n;
  // Sink the state so the loop cannot be optimized out.
  if (std::bit_cast<std::uint64_t>(s.pos[0]) == 0xdeadbeefULL) std::printf("!");
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"krauss_kernel\",\n"
      << "  \"compiler\": \"" << kCompiler << "\",\n"
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"occupancy\": " << r.occupancy << ", \"variant\": \"" << r.variant
        << "\", \"vehicle_steps\": " << r.vehicle_steps
        << ", \"wall_seconds\": " << r.wall_seconds
        << ", \"ns_per_vehicle_step\": " << r.ns_per_vehicle_step() << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "[json] " << path << "\n";
}

}  // namespace
}  // namespace abp::bench

int main(int argc, char** argv) {
  using namespace abp::bench;

  const std::string json_path = argc > 1 ? argv[1] : "BENCH_krauss_kernel.json";
  const long long target_steps =
      static_cast<long long>(40'000'000 * duration_scale());
  const int occupancies[] = {1, 4, 16, 64};

  print_header("Krauss lane kernel (ns per vehicle-step, scalar vs lane_update)");
  std::printf("compiler: %s, hardware_concurrency: %u\n", kCompiler,
              std::thread::hardware_concurrency());
  std::printf("%-10s %-11s %14s %10s %18s\n", "occupancy", "variant", "vehicle-steps",
              "wall [s]", "ns/vehicle-step");

  std::vector<Row> rows;
  std::ofstream csv = open_csv("krauss_kernel");
  csv << "occupancy,variant,vehicle_steps,wall_seconds,ns_per_vehicle_step\n";
  for (int n : occupancies) {
    verify_equivalence(n);
    for (bool kernel : {false, true}) {
      Row row = measure(kernel, n, target_steps);
      std::printf("%-10d %-11s %14lld %10.3f %18.2f\n", row.occupancy,
                  row.variant.c_str(), row.vehicle_steps, row.wall_seconds,
                  row.ns_per_vehicle_step());
      std::fflush(stdout);
      csv << row.occupancy << "," << row.variant << "," << row.vehicle_steps << ","
          << row.wall_seconds << "," << row.ns_per_vehicle_step() << "\n";
      rows.push_back(std::move(row));
    }
  }
  write_json(json_path, rows);
  return 0;
}
