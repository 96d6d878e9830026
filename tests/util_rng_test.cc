#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <vector>

namespace dflow {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBoundsAndCoversRange) {
  Rng rng(7);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 6000; ++i) {
    int64_t v = rng.Uniform(1, 6);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 6);
    ++counts[v];
  }
  EXPECT_EQ(counts.size(), 6u);
  for (const auto& [value, count] : counts) {
    EXPECT_GT(count, 800);  // ~1000 expected.
    EXPECT_LT(count, 1200);
  }
}

TEST(RngTest, UniformSingleton) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.Uniform(5, 5), 5);
  }
}

TEST(RngTest, UniformWideRangesStayInRange) {
  // Ranges wider than INT64_MAX, where hi - lo overflows int64_t.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::pair<int64_t, int64_t> ranges[] = {
      {kMin, kMax}, {kMin, kMax - 1}, {kMin, 0}, {-1, kMax}};
  Rng rng(43);
  for (const auto& [lo, hi] : ranges) {
    // Draws land on both sides of the midpoint, not just inside the range.
    const int64_t mid = lo / 2 + hi / 2;
    int below_mid = 0;
    int above_mid = 0;
    for (int i = 0; i < 1000; ++i) {
      const int64_t v = rng.Uniform(lo, hi);
      ASSERT_GE(v, lo);
      ASSERT_LE(v, hi);
      below_mid += v < mid ? 1 : 0;
      above_mid += v > mid ? 1 : 0;
    }
    EXPECT_GT(below_mid, 400) << lo << ", " << hi;
    EXPECT_GT(above_mid, 400) << lo << ", " << hi;
  }
}

// Uniform() as it was computed in int64_t before wide ranges were fixed.
// Defined, and the reference, whenever hi - lo fits in int64_t.
int64_t NarrowUniformReference(Rng& rng, int64_t lo, int64_t hi) {
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) {
    return static_cast<int64_t>(rng.Next());
  }
  uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t value = rng.Next();
  while (value >= limit) {
    value = rng.Next();
  }
  return lo + static_cast<int64_t>(value % range);
}

TEST(RngTest, UniformNarrowRangesDrawAsBefore) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng pairs(47);
  Rng fixed(53), reference(53);
  int checked = 0;
  while (checked < 10000) {
    // Spans below 2^k and lows of magnitude below 2^j, for every k <= 62
    // and j <= 63, kept where hi = lo + span does not overflow.
    const int span_bits = static_cast<int>(pairs.Uniform(0, 62));
    const int lo_bits = static_cast<int>(pairs.Uniform(0, 63));
    const int64_t span =
        static_cast<int64_t>((pairs.Next() >> 2) >> (62 - span_bits));
    int64_t lo = static_cast<int64_t>((pairs.Next() >> 1) >> (63 - lo_bits));
    if (pairs.Bernoulli(0.5)) {
      lo = -lo;
    }
    if (lo > kMax - span) {
      continue;
    }
    const int64_t hi = lo + span;
    ASSERT_EQ(fixed.Uniform(lo, hi), NarrowUniformReference(reference, lo, hi))
        << "[" << lo << ", " << hi << "]";
    ++checked;
  }
  EXPECT_EQ(fixed.Next(), reference.Next());
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal(10.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(RngTest, FillStandardNormalMatchesNormalCalls) {
  // Sizes around one and two batches of accepted points, the empty and
  // tiny cases, and one survey beam (96 channels x 8192 samples).
  const size_t sizes[] = {0,   1,   2,   3,   127, 128,   129,
                          255, 256, 257, 96 * 8192};
  std::vector<float> filled, expected;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    // 0, 1 and 2 Normal() calls before the fill: with and without a spare
    // pending on entry.
    for (int prior = 0; prior < 3; ++prior) {
      for (size_t n : sizes) {
        Rng fill_rng(seed), call_rng(seed);
        for (int i = 0; i < prior; ++i) {
          fill_rng.Normal();
          call_rng.Normal();
        }
        filled.assign(n, -7.0f);
        fill_rng.FillStandardNormal(filled.data(), n);
        expected.resize(n);
        for (float& x : expected) {
          x = static_cast<float>(call_rng.Normal(0.0, 1.0));
        }
        ASSERT_TRUE(n == 0 || std::memcmp(filled.data(), expected.data(),
                                          n * sizeof(float)) == 0)
            << "seed " << seed << " prior " << prior << " n " << n;
        // Same stream position, same spare afterwards.
        const double after_fill = fill_rng.Normal();
        const double after_calls = call_rng.Normal();
        ASSERT_EQ(std::memcmp(&after_fill, &after_calls, sizeof(double)), 0)
            << "seed " << seed << " prior " << prior << " n " << n;
        ASSERT_EQ(fill_rng.Next(), call_rng.Next())
            << "seed " << seed << " prior " << prior << " n " << n;
      }
    }
  }
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Exponential(2.0);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(17);
  for (double mean : {0.5, 4.0, 20.0, 200.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(rng.Poisson(mean));
    }
    EXPECT_NEAR(sum / n, mean, std::max(0.05, mean * 0.05));
  }
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(19);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, ZipfRankOneIsMostCommon) {
  Rng rng(23);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    int64_t rank = rng.Zipf(100, 1.1);
    ASSERT_GE(rank, 1);
    ASSERT_LE(rank, 100);
    ++counts[rank];
  }
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[1], counts[10] * 3);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) {
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) {
    v[static_cast<size_t>(i)] = i;
  }
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // Astronomically unlikely to be identity.
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(37);
  Rng child = parent.Fork();
  // Child stream should differ from the parent's continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

class ZipfExponentTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfExponentTest, HeavierExponentConcentratesMass) {
  Rng rng(41);
  const double s = GetParam();
  int rank_one = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Zipf(1000, s) == 1) {
      ++rank_one;
    }
  }
  // Rank-1 probability grows with the exponent; sanity bounds per value.
  double p = static_cast<double>(rank_one) / n;
  if (s <= 0.8) {
    EXPECT_LT(p, 0.30);
  } else if (s >= 1.5) {
    EXPECT_GT(p, 0.30);
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfExponentTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.5, 2.0));

}  // namespace
}  // namespace dflow
