// Tests for metrics, phase traces, time series and report tables.
#include <gtest/gtest.h>

#include <sstream>

#include "src/stats/metrics.hpp"
#include "src/stats/phase_trace.hpp"
#include "src/stats/report.hpp"
#include "src/stats/timeseries.hpp"

namespace abp::stats {
namespace {

TEST(PhaseTrace, CompressesRepeats) {
  PhaseTrace trace;
  trace.record(0.0, 1);
  trace.record(1.0, 1);
  trace.record(2.0, 1);
  trace.record(3.0, 0);
  trace.record(4.0, 2);
  trace.finish(10.0);
  ASSERT_EQ(trace.samples().size(), 3u);
  EXPECT_EQ(trace.samples()[0].phase, 1);
  EXPECT_EQ(trace.samples()[1].phase, 0);
  EXPECT_EQ(trace.samples()[2].phase, 2);
}

TEST(PhaseTrace, RejectsTimeTravel) {
  PhaseTrace trace;
  trace.record(5.0, 1);
  EXPECT_THROW(trace.record(4.0, 2), std::invalid_argument);
  // A repeat of the last phase, which record() compresses inline, too.
  EXPECT_THROW(trace.record(4.0, 1), std::invalid_argument);
}

TEST(PhaseTrace, RejectsRecordAfterFinish) {
  PhaseTrace trace;
  trace.record(0.0, 1);
  trace.finish(1.0);
  EXPECT_THROW(trace.record(2.0, 2), std::logic_error);
  EXPECT_THROW(trace.record(2.0, 1), std::logic_error);
}

TEST(PhaseTrace, TransitionCountIgnoresInitialAmber) {
  PhaseTrace trace;
  trace.record(0.0, 0);  // start-up amber: not a change
  trace.record(4.0, 1);
  trace.record(10.0, 0);
  trace.record(14.0, 2);
  trace.record(20.0, 0);
  trace.finish(24.0);
  EXPECT_EQ(trace.transition_count(), 2);
}

TEST(PhaseTrace, TimeInPhaseAndAmberFraction) {
  PhaseTrace trace;
  trace.record(0.0, 1);
  trace.record(6.0, 0);
  trace.record(10.0, 2);
  trace.finish(20.0);
  EXPECT_DOUBLE_EQ(trace.time_in_phase(1), 6.0);
  EXPECT_DOUBLE_EQ(trace.time_in_phase(0), 4.0);
  EXPECT_DOUBLE_EQ(trace.time_in_phase(2), 10.0);
  EXPECT_DOUBLE_EQ(trace.amber_fraction(), 4.0 / 20.0);
}

TEST(PhaseTrace, ControlPhaseDurations) {
  PhaseTrace trace;
  trace.record(0.0, 1);
  trace.record(30.0, 0);
  trace.record(34.0, 2);
  trace.record(54.0, 1);
  trace.finish(60.0);
  const auto durations = trace.control_phase_durations();
  ASSERT_EQ(durations.size(), 3u);
  EXPECT_DOUBLE_EQ(durations[0], 30.0);
  EXPECT_DOUBLE_EQ(durations[1], 20.0);
  EXPECT_DOUBLE_EQ(durations[2], 6.0);
}

TEST(PhaseTrace, EmptyTraceIsSafe) {
  PhaseTrace trace;
  trace.finish(10.0);
  EXPECT_EQ(trace.transition_count(), 0);
  EXPECT_DOUBLE_EQ(trace.amber_fraction(), 0.0);
  EXPECT_TRUE(trace.control_phase_durations().empty());
}

TEST(TimeSeries, BasicAccessors) {
  TimeSeries ts("queue");
  EXPECT_TRUE(ts.empty());
  ts.push(0.0, 2.0);
  ts.push(10.0, 4.0);
  ts.push(20.0, 6.0);
  EXPECT_EQ(ts.name(), "queue");
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_DOUBLE_EQ(ts.mean(), 4.0);
  EXPECT_DOUBLE_EQ(ts.max(), 6.0);
}

TEST(TimeSeries, TimeWeightedMean) {
  TimeSeries ts;
  // Value 0 for 10 s, then 10 for 90 s: weighted mean = 9 over [0,100].
  ts.push(0.0, 0.0);
  ts.push(10.0, 10.0);
  ts.push(100.0, 10.0);
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(), 9.0);
}

TEST(TimeSeries, TimeWeightedMeanFallsBackForShortSeries) {
  TimeSeries ts;
  ts.push(0.0, 5.0);
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(), 5.0);
}

TEST(NetworkMetrics, RatiosAndAverages) {
  NetworkMetrics m;
  m.generated = 10;
  m.entered = 8;
  m.completed = 6;
  m.queuing_time_s.add(10.0);
  m.queuing_time_s.add(20.0);
  m.travel_time_s.add(100.0);
  EXPECT_DOUBLE_EQ(m.average_queuing_time_s(), 15.0);
  EXPECT_DOUBLE_EQ(m.average_travel_time_s(), 100.0);
  EXPECT_DOUBLE_EQ(m.completion_ratio(), 0.75);
}

TEST(NetworkMetrics, EmptyIsZero) {
  NetworkMetrics m;
  EXPECT_DOUBLE_EQ(m.average_queuing_time_s(), 0.0);
  EXPECT_DOUBLE_EQ(m.completion_ratio(), 0.0);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"Pattern", "Value"});
  t.add_row({"I", "102.87"});
  t.add_row({"Mixed", "95.56"});
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("| Pattern | Value  |"), std::string::npos);
  EXPECT_NE(s.find("| I       | 102.87 |"), std::string::npos);
  EXPECT_NE(s.find("| Mixed   | 95.56  |"), std::string::npos);
}

TEST(TextTable, ShortRowsRenderEmptyCells) {
  TextTable t({"A", "B"});
  t.add_row({"x"});
  std::ostringstream out;
  t.print(out);
  EXPECT_NE(out.str().find("| x |   |"), std::string::npos);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(3.14159, 0), "3");
  EXPECT_EQ(TextTable::num(100.0), "100.00");
}

}  // namespace
}  // namespace abp::stats
