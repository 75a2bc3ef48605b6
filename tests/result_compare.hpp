// Instruments for the refactor pins: deep bit-exact comparison of two
// RunResults (memo-table elision), the state digest the mid-run pins fold a
// run into, and a controller decorator that turns off the idle-decision
// skip. Exact double equality on purpose: the transformations under test
// must preserve the arithmetic bit for bit, not approximately.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>

#include "src/core/controller.hpp"
#include "src/net/network.hpp"
#include "src/queuesim/queue_sim.hpp"
#include "src/stats/run_result.hpp"

namespace abp::testing {

// Forwards every call to the wrapped controller but keeps idle_hold_until's
// -infinity default, so a simulator never skips a decision of the junction.
class NeverSkippedController final : public core::SignalController {
 public:
  explicit NeverSkippedController(core::ControllerPtr inner) : inner_(std::move(inner)) {}
  net::PhaseIndex decide(const core::IntersectionObservation& obs) override {
    return inner_->decide(obs);
  }
  void reset() override { inner_->reset(); }
  std::string name() const override { return inner_->name(); }

 private:
  core::ControllerPtr inner_;
};

// FNV-1a over 64-bit words, for folding a run's state into one pinnable
// value. Cast a std::uint32_t or std::size_t argument to std::uint64_t: the
// first is ambiguous between the overloads, the second is on platforms
// where std::uint64_t is another type.
class StateDigest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(int value) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(value))); }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Folds the queue sim's full observable state after a tick: vehicles in the
// network, every road's occupancy and queued count, every movement queue and
// the bits of its banked credit, and every displayed phase.
inline void fold_queue_state(StateDigest& digest, const queuesim::QueueSim& queue,
                             const net::Network& network) {
  digest.add(queue.vehicles_in_network());
  for (const net::Road& road : network.roads()) {
    digest.add(queue.road_occupancy(road.id));
    digest.add(queue.queued_on_road(road.id));
  }
  for (const net::Link& link : network.links()) {
    digest.add(queue.link_queue(link.id));
    digest.add(queue.link_credit(link.id));
  }
  for (const net::Intersection& node : network.intersections()) {
    digest.add(queue.displayed_phase(node.id));
  }
}

inline void expect_metrics_identical(const stats::NetworkMetrics& a,
                                     const stats::NetworkMetrics& b) {
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.entered, b.entered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.in_network_at_end, b.in_network_at_end);
  EXPECT_EQ(a.queuing_time_s.count(), b.queuing_time_s.count());
  EXPECT_EQ(a.travel_time_s.count(), b.travel_time_s.count());
  EXPECT_EQ(a.queuing_time_s.mean(), b.queuing_time_s.mean());
  EXPECT_EQ(a.travel_time_s.mean(), b.travel_time_s.mean());
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_EQ(a.queuing_time_s.quantile(q), b.queuing_time_s.quantile(q)) << "q=" << q;
    EXPECT_EQ(a.travel_time_s.quantile(q), b.travel_time_s.quantile(q)) << "q=" << q;
  }
  EXPECT_EQ(a.entry_blocked_time_s, b.entry_blocked_time_s);
}

inline void expect_series_identical(const stats::TimeSeries& a,
                                    const stats::TimeSeries& b) {
  ASSERT_EQ(a.times().size(), b.times().size());
  for (std::size_t i = 0; i < a.times().size(); ++i) {
    EXPECT_EQ(a.times()[i], b.times()[i]) << "sample " << i;
    EXPECT_EQ(a.values()[i], b.values()[i]) << "sample " << i;
  }
}

inline void expect_results_identical(const stats::RunResult& a,
                                     const stats::RunResult& b) {
  expect_metrics_identical(a.metrics, b.metrics);
  EXPECT_EQ(a.duration_s, b.duration_s);
  expect_series_identical(a.in_network_series, b.in_network_series);
  ASSERT_EQ(a.road_series.size(), b.road_series.size());
  for (std::size_t i = 0; i < a.road_series.size(); ++i) {
    SCOPED_TRACE("road series " + std::to_string(i));
    expect_series_identical(a.road_series[i], b.road_series[i]);
  }
  ASSERT_EQ(a.phase_traces.size(), b.phase_traces.size());
  for (std::size_t i = 0; i < a.phase_traces.size(); ++i) {
    const auto& ta = a.phase_traces[i].samples();
    const auto& tb = b.phase_traces[i].samples();
    ASSERT_EQ(ta.size(), tb.size()) << "trace " << i;
    for (std::size_t j = 0; j < ta.size(); ++j) {
      EXPECT_EQ(ta[j].time, tb[j].time) << "trace " << i << " sample " << j;
      EXPECT_EQ(ta[j].phase, tb[j].phase) << "trace " << i << " sample " << j;
    }
  }
  EXPECT_EQ(a.detections.samples, b.detections.samples);
  ASSERT_EQ(a.detections.events.size(), b.detections.events.size());
  for (std::size_t i = 0; i < a.detections.events.size(); ++i) {
    const stats::DetectionEvent& ea = a.detections.events[i];
    const stats::DetectionEvent& eb = b.detections.events[i];
    EXPECT_EQ(ea.time_s, eb.time_s) << "event " << i;
    EXPECT_EQ(ea.row, eb.row) << "event " << i;
    EXPECT_EQ(ea.col, eb.col) << "event " << i;
    EXPECT_EQ(ea.direction, eb.direction) << "event " << i;
    EXPECT_EQ(ea.statistic, eb.statistic) << "event " << i;
    EXPECT_EQ(ea.links, eb.links) << "event " << i;
  }
}

}  // namespace abp::testing
