// Tests for the deterministic RNG and its distributions.
#include "src/util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

namespace abp {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, AdjacentSeedsDecorrelated) {
  // SplitMix64 seeding must break the similarity of nearby seeds.
  Rng a(1000);
  Rng b(1001);
  int equal_bits = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t x = a.next() ^ b.next();
    equal_bits += 64 - static_cast<int>(__builtin_popcountll(x));
  }
  // ~50% of 64*64 bits should match; allow generous slack.
  EXPECT_GT(equal_bits, 1500);
  EXPECT_LT(equal_bits, 2600);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / kN, 0.5, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.uniform_int(2, 9);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform_int(42, 42), 42);
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(23);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(6.0);
  EXPECT_NEAR(sum / kN, 6.0, 0.1);
}

TEST(Rng, ExponentialNonNegative) {
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GE(rng.exponential(3.0), 0.0);
  }
}

TEST(Rng, ExponentialVarianceMatches) {
  // Var of Exp(mean m) is m^2.
  Rng rng(31);
  constexpr int kN = 200000;
  constexpr double kMean = 4.0;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.exponential(kMean);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(var, kMean * kMean, 0.5);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(47);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, DiscreteMatchesWeights) {
  Rng rng(53);
  const std::array<double, 3> weights = {0.2, 0.5, 0.3};
  std::array<int, 3> counts{};
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    counts[rng.discrete(weights)]++;
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.2, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.5, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(kN), 0.3, 0.01);
}

TEST(Rng, DiscreteIgnoresNegativeWeights) {
  Rng rng(59);
  const std::array<double, 3> weights = {-5.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.discrete(weights), 1u);
  }
}

TEST(Rng, DiscreteAllZeroReturnsFirst) {
  Rng rng(61);
  const std::array<double, 4> weights = {0.0, 0.0, 0.0, 0.0};
  EXPECT_EQ(rng.discrete(weights), 0u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(67);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (parent.next() == child.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(71);
  Rng b(71);
  Rng ca = a.split();
  Rng cb = b.split();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ca.next(), cb.next());
  }
}

// --- StreamRng: the counter-based stream behind the parallel lane sweep ---

TEST(StreamRng, SameSeedAndStreamReproduce) {
  StreamRng a(2020, 17);
  StreamRng b(2020, 17);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(StreamRng, DistinctStreamsAreUnrelated) {
  StreamRng a(2020, 0);
  StreamRng b(2020, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(StreamRng, DistinctSeedsAreUnrelated) {
  StreamRng a(1, 5);
  StreamRng b(2, 5);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(StreamRng, DrawIsAPureFunctionOfTheCounter) {
  // The property the parallel sweep's determinism rests on: draw k of a
  // stream has one value, no matter when or on which thread it is taken.
  StreamRng a(99, 3);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 50; ++i) first.push_back(a.next());
  EXPECT_EQ(a.counter(), 50u);
  a.set_counter(0);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next(), first[static_cast<std::size_t>(i)]);
  a.set_counter(10);
  EXPECT_EQ(a.next(), first[10]);
}

TEST(StreamRng, Uniform01InRangeWithSaneMean) {
  StreamRng rng(7, 42);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

class StreamRngBulkFill : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StreamRngBulkFill, MatchesSequentialDrawsAndCounter) {
  // The property the vectorized lane sweep rests on: one bulk fill of n
  // draws is indistinguishable from n sequential uniform01() calls — same
  // values bit for bit, same final counter. Start mid-stream so the batch
  // boundary is not counter 0.
  const std::size_t n = GetParam();
  StreamRng bulk(2020, 5);
  StreamRng seq(2020, 5);
  for (int i = 0; i < 7; ++i) {
    bulk.uniform01();
    seq.uniform01();
  }
  std::vector<double> dst(n + 1, -1.0);  // +1 sentinel guards against overrun
  bulk.fill_u01(dst.data(), n);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(dst[j], seq.uniform01()) << "draw " << j << " of " << n;
  }
  EXPECT_EQ(dst[n], -1.0);
  EXPECT_EQ(bulk.counter(), seq.counter());
  // The streams stay in lockstep after the batch.
  EXPECT_EQ(bulk.next(), seq.next());
}

TEST_P(StreamRngBulkFill, TailFirstFillIsTheReversedBulkFill) {
  // fill_u01_tailfirst serves a head-first kernel replaying a tail-first
  // scalar consumer: dst[i] must hold draw (n-1-i), and the counter must
  // advance exactly as fill_u01 does.
  const std::size_t n = GetParam();
  StreamRng a(99, 3);
  StreamRng b(99, 3);
  std::vector<double> fwd(n), rev(n);
  a.fill_u01(fwd.data(), n);
  b.fill_u01_tailfirst(rev.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(rev[i], fwd[n - 1 - i]) << "slot " << i << " of " << n;
  }
  EXPECT_EQ(a.counter(), b.counter());
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, StreamRngBulkFill,
                         ::testing::Values(0u, 1u, 3u, 4u, 17u));

TEST(StreamRng, BoundedStaysInRange) {
  StreamRng rng(7, 1);
  for (const std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1ull << 33}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(rng.bounded(bound), bound) << "bound " << bound;
    }
  }
}

TEST(StreamRng, BoundedOneIsAlwaysZero) {
  StreamRng rng(11, 2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(StreamRng, BoundedIsDeterministic) {
  StreamRng a(2020, 17);
  StreamRng b(2020, 17);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.bounded(97), b.bounded(97));
}

TEST(StreamRng, BoundedIsUnbiased) {
  // The draw this replaced (`next() % span`) over-represents the low
  // residues whenever span does not divide 2^64. Rejection sampling must
  // not: every residue's count stays within chi-square-style slack of the
  // expectation, including spans adjacent to a power of two where modulo
  // bias is at its relative worst.
  for (const std::uint64_t bound : {3ull, 7ull, 10ull, (1ull << 4) + 1}) {
    StreamRng rng(123, bound);
    constexpr int kDraws = 200000;
    std::vector<int> counts(static_cast<std::size_t>(bound), 0);
    for (int i = 0; i < kDraws; ++i) {
      ++counts[static_cast<std::size_t>(rng.bounded(bound))];
    }
    const double expected = static_cast<double>(kDraws) / static_cast<double>(bound);
    for (std::uint64_t r = 0; r < bound; ++r) {
      EXPECT_NEAR(counts[static_cast<std::size_t>(r)], expected, 5.0 * std::sqrt(expected))
          << "residue " << r << " of bound " << bound;
    }
  }
}

TEST(StreamRng, BitMixSpreadsAcrossWords) {
  // Crude avalanche check: consecutive counters should flip about half the
  // output bits on average — a Weyl-style weak mix would fail this wildly.
  StreamRng rng(123, 9);
  std::uint64_t prev = rng.next();
  double flips = 0.0;
  constexpr int kDraws = 4096;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t cur = rng.next();
    flips += static_cast<double>(__builtin_popcountll(prev ^ cur));
    prev = cur;
  }
  EXPECT_NEAR(flips / kDraws, 32.0, 2.0);
}

}  // namespace
}  // namespace abp
