// Tests for the paper's workload tables (Table I and Table II).
#include "src/traffic/patterns.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace abp::traffic {
namespace {

TEST(TurningTable, MatchesPaperTableI) {
  const TurningTable t = TurningTable::paper();
  EXPECT_DOUBLE_EQ(t.entering_from(net::Side::North).right, 0.4);
  EXPECT_DOUBLE_EQ(t.entering_from(net::Side::North).left, 0.2);
  EXPECT_DOUBLE_EQ(t.entering_from(net::Side::East).right, 0.3);
  EXPECT_DOUBLE_EQ(t.entering_from(net::Side::East).left, 0.3);
  EXPECT_DOUBLE_EQ(t.entering_from(net::Side::South).right, 0.4);
  EXPECT_DOUBLE_EQ(t.entering_from(net::Side::South).left, 0.3);
  EXPECT_DOUBLE_EQ(t.entering_from(net::Side::West).right, 0.3);
  EXPECT_DOUBLE_EQ(t.entering_from(net::Side::West).left, 0.4);
}

TEST(TurningTable, StraightIsComplement) {
  const TurningTable t = TurningTable::paper();
  for (net::Side s : net::kAllSides) {
    const auto& p = t.entering_from(s);
    EXPECT_NEAR(p.right + p.left + p.straight(), 1.0, 1e-12);
    EXPECT_GT(p.straight(), 0.0);
  }
}

TEST(ArrivalRow, MatchesPaperTableII) {
  // Pattern I (adjacent heavy): N=3, E=5, S=7, W=9.
  const ArrivalRow i = arrival_row(PatternKind::I);
  EXPECT_DOUBLE_EQ(i.on(net::Side::North), 3.0);
  EXPECT_DOUBLE_EQ(i.on(net::Side::East), 5.0);
  EXPECT_DOUBLE_EQ(i.on(net::Side::South), 7.0);
  EXPECT_DOUBLE_EQ(i.on(net::Side::West), 9.0);
  // Pattern II (uniform): all 6 s.
  for (net::Side s : net::kAllSides) {
    EXPECT_DOUBLE_EQ(arrival_row(PatternKind::II).on(s), 6.0);
  }
  // Pattern III (opposite heavy): N=3, E=7, S=5, W=9.
  const ArrivalRow iii = arrival_row(PatternKind::III);
  EXPECT_DOUBLE_EQ(iii.on(net::Side::North), 3.0);
  EXPECT_DOUBLE_EQ(iii.on(net::Side::East), 7.0);
  EXPECT_DOUBLE_EQ(iii.on(net::Side::South), 5.0);
  EXPECT_DOUBLE_EQ(iii.on(net::Side::West), 9.0);
  // Pattern IV (single heavy): N=3, rest 9.
  const ArrivalRow iv = arrival_row(PatternKind::IV);
  EXPECT_DOUBLE_EQ(iv.on(net::Side::North), 3.0);
  EXPECT_DOUBLE_EQ(iv.on(net::Side::East), 9.0);
  EXPECT_DOUBLE_EQ(iv.on(net::Side::South), 9.0);
  EXPECT_DOUBLE_EQ(iv.on(net::Side::West), 9.0);
}

TEST(ArrivalRow, MixedHasNoSingleRow) {
  EXPECT_THROW((void)arrival_row(PatternKind::Mixed), std::invalid_argument);
}

TEST(PatternAt, NonMixedIsTimeInvariant) {
  for (PatternKind k : {PatternKind::I, PatternKind::II, PatternKind::III, PatternKind::IV}) {
    EXPECT_EQ(pattern_at(k, 0.0), k);
    EXPECT_EQ(pattern_at(k, 1e6), k);
  }
}

TEST(PatternAt, MixedCyclesHourly) {
  EXPECT_EQ(pattern_at(PatternKind::Mixed, 0.0), PatternKind::I);
  EXPECT_EQ(pattern_at(PatternKind::Mixed, 3599.9), PatternKind::I);
  EXPECT_EQ(pattern_at(PatternKind::Mixed, 3600.0), PatternKind::II);
  EXPECT_EQ(pattern_at(PatternKind::Mixed, 2.0 * 3600.0), PatternKind::III);
  EXPECT_EQ(pattern_at(PatternKind::Mixed, 3.0 * 3600.0), PatternKind::IV);
  // Wraps after four hours.
  EXPECT_EQ(pattern_at(PatternKind::Mixed, 4.0 * 3600.0), PatternKind::I);
  EXPECT_EQ(pattern_at(PatternKind::Mixed, 5.5 * 3600.0), PatternKind::II);
}

TEST(MeanInterarrival, AppliesScaleAndSchedule) {
  EXPECT_DOUBLE_EQ(mean_interarrival(PatternKind::I, net::Side::North, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(mean_interarrival(PatternKind::I, net::Side::North, 0.0, 2.0), 6.0);
  // Mixed pattern at hour 1 uses Pattern II's row.
  EXPECT_DOUBLE_EQ(mean_interarrival(PatternKind::Mixed, net::Side::North, 3600.0), 6.0);
  EXPECT_DOUBLE_EQ(mean_interarrival(PatternKind::Mixed, net::Side::West, 3.5 * 3600.0), 9.0);
}

TEST(PaperDuration, OneHourExceptMixed) {
  EXPECT_DOUBLE_EQ(paper_duration_s(PatternKind::I), 3600.0);
  EXPECT_DOUBLE_EQ(paper_duration_s(PatternKind::IV), 3600.0);
  EXPECT_DOUBLE_EQ(paper_duration_s(PatternKind::Mixed), 4.0 * 3600.0);
}

TEST(PatternName, AllDistinct) {
  std::set<std::string> names;
  for (PatternKind k : {PatternKind::I, PatternKind::II, PatternKind::III, PatternKind::IV,
                        PatternKind::Mixed}) {
    names.insert(pattern_name(k));
  }
  EXPECT_EQ(names.size(), 5u);
}

}  // namespace
}  // namespace abp::traffic
