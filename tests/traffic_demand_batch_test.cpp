// Tests for the batched demand interface (DemandGenerator::poll_into): the
// per-tick buffer-reuse path the simulators drive must yield exactly the
// same spawn sequence — time and route — as legacy one-shot
// polling for a fixed seed, no matter how the horizon is sliced into
// windows, and the earliest-arrival early-out must never skip a spawn.
#include "src/traffic/demand.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/net/grid.hpp"

namespace abp::traffic {
namespace {

net::Network grid3() { return net::build_grid(net::GridConfig{}); }

DemandConfig config(PatternKind p = PatternKind::II) {
  DemandConfig cfg;
  cfg.pattern = p;
  return cfg;
}

// Drives the batched interface the way the simulators do: one poll_into per
// tick into a reused buffer, concatenating the windows.
std::vector<SpawnRequest> poll_windowed(DemandGenerator& gen, double horizon_s,
                                        double window_s) {
  std::vector<SpawnRequest> all;
  std::vector<SpawnRequest> buffer;
  for (double t = 0.0; t < horizon_s; t += window_s) {
    gen.poll_into(t, std::min(t + window_s, horizon_s), buffer);
    all.insert(all.end(), buffer.begin(), buffer.end());
  }
  return all;
}

void expect_same_sequence(const std::vector<SpawnRequest>& a,
                          const std::vector<SpawnRequest>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Exact double equality on purpose: the batched path must consume the
    // identical RNG stream, not an approximately similar one.
    EXPECT_EQ(a[i].time, b[i].time) << "spawn " << i;
    EXPECT_EQ(a[i].route, b[i].route) << "spawn " << i;
  }
}

TEST(DemandBatch, PerTickWindowsMatchOneShotPoll) {
  const net::Network net = grid3();
  DemandGenerator windowed(net, config(), 7);
  DemandGenerator oneshot(net, config(), 7);
  const auto a = poll_windowed(windowed, 1200.0, 1.0);
  const auto b = oneshot.poll(0.0, 1200.0);
  expect_same_sequence(a, b);
  EXPECT_EQ(windowed.total_generated(), oneshot.total_generated());
}

TEST(DemandBatch, EarlyOutWindowsSkipNothing) {
  // Quarter-second windows under Pattern II demand leave most windows empty,
  // exercising the earliest-arrival early-out on nearly every call.
  const net::Network net = grid3();
  DemandGenerator windowed(net, config(), 13);
  DemandGenerator oneshot(net, config(), 13);
  expect_same_sequence(poll_windowed(windowed, 300.0, 0.25),
                       oneshot.poll(0.0, 300.0));
}

TEST(DemandBatch, MixedWindowSizesMatch) {
  // Slicing the same horizon differently must not shift the stream: the
  // schedule-driven Mixed pattern re-evaluates rates per arrival, which
  // would expose any window-boundary dependence.
  const net::Network net = grid3();
  DemandGenerator coarse(net, config(PatternKind::Mixed), 29);
  DemandGenerator fine(net, config(PatternKind::Mixed), 29);
  expect_same_sequence(poll_windowed(coarse, 900.0, 10.0),
                       poll_windowed(fine, 900.0, 0.5));
}

TEST(DemandBatch, BufferIsClearedEveryPoll) {
  const net::Network net = grid3();
  DemandGenerator gen(net, config(), 3);
  std::vector<SpawnRequest> buffer(17);  // stale garbage from a "previous tick"
  gen.poll_into(0.0, 60.0, buffer);
  DemandGenerator reference(net, config(), 3);
  expect_same_sequence(buffer, reference.poll(0.0, 60.0));
  // An empty window clears the buffer too, including on the early-out path.
  DemandGenerator idle(net, config(), 3);
  std::vector<SpawnRequest> junk(5);
  idle.poll_into(0.0, 1.0e-9, junk);
  EXPECT_TRUE(junk.empty());
}

}  // namespace
}  // namespace abp::traffic
