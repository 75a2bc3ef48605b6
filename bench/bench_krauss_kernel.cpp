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
// Each (occupancy, variant) row is timed in kRepeats repeats; a repeat times
// both variants, and consecutive repeats alternate which one runs first, so
// drift on the machine and the warm-up order fall on both alike. A row
// reports the median and the quartiles of its repeats.
//
// Output: stdout table, CSV mirror under ./bench_results/ (one line per
// repeat), and a JSON report (argv[1], default BENCH_krauss_kernel.json):
// the machine's hardware_concurrency, then rows keyed (occupancy, variant)
// with the median, quartiles and every repeat of ns_per_vehicle_step, and
// vehicle_steps per repeat as the load descriptor. ABP_FAST=1 scales the
// tick counts down 10x.
#include <algorithm>
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
constexpr int kRepeats = 7;

struct Row {
  int occupancy = 0;
  std::string variant;
  long long vehicle_steps = 0;  // per repeat
  std::vector<double> ns;       // ns per vehicle-step of each repeat, in run order
};

// Linear-interpolation quantile of the repeats (Python's
// statistics.quantiles(method="inclusive") at p = 0.25, 0.5, 0.75).
double quantile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const double h = static_cast<double>(samples.size() - 1) * p;
  const std::size_t lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (h - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

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

// One timed repeat of one variant: ns per vehicle-step over `ticks` ticks.
// The variant is a template argument, so each timed loop is compiled for
// its own variant, whichever order the repeats call them in.
template <bool kernel>
double measure_ns(int n, long long ticks) {
  LaneState s = release_state(n);
  StreamRng rng(2020, static_cast<std::uint64_t>(n));
  microsim::LaneKernelScratch scratch;
  // Warmup: one full reset cadence (pulls code+data hot, sizes the scratch).
  for (int t = 0; t < kResetEvery; ++t) tick(kernel, s, rng, scratch);
  s = release_state(n);
  const double seconds = timed_seconds([&] {
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
  // Sink the state so the loop cannot be optimized out.
  if (std::bit_cast<std::uint64_t>(s.pos[0]) == 0xdeadbeefULL) std::printf("!");
  return seconds * 1e9 / static_cast<double>(ticks * n);
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
        << "\", \"vehicle_steps_per_repeat\": " << r.vehicle_steps
        << ", \"repeats\": " << r.ns.size()
        << ", \"ns_per_vehicle_step_median\": " << quantile(r.ns, 0.5)
        << ", \"ns_per_vehicle_step_q1\": " << quantile(r.ns, 0.25)
        << ", \"ns_per_vehicle_step_q3\": " << quantile(r.ns, 0.75)
        << ", \"ns_per_vehicle_step_runs\": [";
    for (std::size_t k = 0; k < r.ns.size(); ++k) out << (k ? ", " : "") << r.ns[k];
    out << "]}" << (i + 1 < rows.size() ? "," : "") << "\n";
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
      static_cast<long long>(10'000'000 * duration_scale());
  const int occupancies[] = {1, 4, 16, 64};

  print_header("Krauss lane kernel (ns per vehicle-step, scalar vs lane_update)");
  std::printf("compiler: %s, hardware_concurrency: %u, %d repeats per row\n", kCompiler,
              std::thread::hardware_concurrency(), kRepeats);
  std::printf("%-10s %-11s %14s %10s %10s %10s\n", "occupancy", "variant",
              "steps/repeat", "median ns", "q1", "q3");

  std::vector<Row> rows;
  std::ofstream csv = open_csv("krauss_kernel");
  csv << "occupancy,variant,repeat,vehicle_steps,ns_per_vehicle_step\n";
  for (int n : occupancies) {
    verify_equivalence(n);
    const long long ticks = target_steps / n;
    Row pair[2] = {{n, "scalar", ticks * n, {}}, {n, "lane_update", ticks * n, {}}};
    for (int r = 0; r < kRepeats; ++r) {
      for (int k = 0; k < 2; ++k) {
        const bool kernel = (k == 1) != (r % 2 == 1);  // odd repeats: kernel first
        Row& row = pair[kernel ? 1 : 0];
        row.ns.push_back(kernel ? measure_ns<true>(n, ticks) : measure_ns<false>(n, ticks));
        csv << n << "," << row.variant << "," << r << "," << row.vehicle_steps << ","
            << row.ns.back() << "\n";
      }
    }
    for (Row& row : pair) {
      std::printf("%-10d %-11s %14lld %10.2f %10.2f %10.2f\n", row.occupancy,
                  row.variant.c_str(), row.vehicle_steps, quantile(row.ns, 0.5),
                  quantile(row.ns, 0.25), quantile(row.ns, 0.75));
      std::fflush(stdout);
      rows.push_back(std::move(row));
    }
  }
  write_json(json_path, rows);
  return 0;
}
