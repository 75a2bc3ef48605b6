// Deep bit-exact comparison of two RunResults for the refactor pins
// (memo-table elision). Exact double equality on purpose: the
// transformations under test must preserve the arithmetic bit for bit, not
// approximately.
#pragma once

#include <gtest/gtest.h>

#include "src/stats/run_result.hpp"

namespace abp::testing {

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
