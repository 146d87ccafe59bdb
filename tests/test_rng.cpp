#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

namespace gam::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng parent(42);
  Rng c1 = parent.fork("web");
  Rng c2 = Rng(42).fork("web");
  EXPECT_EQ(c1.next(), c2.next());
  Rng other = Rng(42).fork("dns");
  EXPECT_NE(Rng(42).fork("web").next(), other.next());
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng a(7), b(7);
  (void)a.fork("x");
  EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformOneAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, Uniform01HalfOpen) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
  }
}

TEST(Rng, ChanceFrequencyRoughlyMatches) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / double(n), 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ExponentialIsPositiveWithRightMean) {
  Rng rng(23);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = rng.exponential(0.5);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, PositiveCountAtLeastOne) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.positive_count(0.2), 1);
    EXPECT_GE(rng.positive_count(5.0), 1);
  }
}

TEST(Rng, WeightedRespectsZeroWeights) {
  Rng rng(31);
  std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) EXPECT_EQ(rng.weighted(w), 1u);
}

TEST(Rng, WeightedAllZeroReturnsSize) {
  Rng rng(31);
  std::vector<double> w = {0.0, 0.0};
  EXPECT_EQ(rng.weighted(w), w.size());
}

TEST(Rng, WeightedProportions) {
  Rng rng(37);
  std::vector<double> w = {1.0, 3.0};
  int count1 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.weighted(w) == 1) ++count1;
  }
  EXPECT_NEAR(count1 / double(n), 0.75, 0.02);
}

TEST(Rng, WeightedWithPrecomputedTotalDrawsTheSameIndex) {
  // Worldgen's embed weights (0.05 noise endpoints, 0.7/0.8 tail, 1-6
  // majors) plus the zero and negative entries a draw must skip.
  const double kValues[] = {0, -1, 0.05, 0.7, 0.8, 1, 2, 3, 3.2, 3.4, 4, 6};
  Rng gen(2024);
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<double> w(1 + gen.uniform(2000));
    // Every 50th vector is all zero: both forms return size() without a draw.
    for (double& x : w) x = trial % 50 == 0 ? 0.0 : kValues[gen.uniform(std::size(kValues))];
    double total = 0.0;
    for (double x : w) total += (x > 0 ? x : 0);
    const uint64_t seed = gen.next();
    Rng one(seed), two(seed);
    for (int draw = 0; draw < 8; ++draw) {
      ASSERT_EQ(one.weighted(w), two.weighted(w, total)) << "trial " << trial;
    }
    ASSERT_EQ(one.next(), two.next()) << "trial " << trial;
  }
}

TEST(Rng, SampleIndicesDistinctAndBounded) {
  Rng rng(41);
  auto idx = rng.sample_indices(10, 4);
  EXPECT_EQ(idx.size(), 4u);
  std::set<size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 4u);
  for (size_t i : idx) EXPECT_LT(i, 10u);
}

TEST(Rng, SampleIndicesClampsToN) {
  Rng rng(43);
  EXPECT_EQ(rng.sample_indices(3, 10).size(), 3u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(47);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// Property sweep: uniform(n) stays in range and covers values for many n.
class RngUniformSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngUniformSweep, CoversRange) {
  uint64_t n = GetParam();
  Rng rng(n * 7919 + 1);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.uniform(n);
    ASSERT_LT(v, n);
    seen.insert(v);
  }
  if (n <= 8) EXPECT_EQ(seen.size(), n);
}

INSTANTIATE_TEST_SUITE_P(Ranges, RngUniformSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 100, 1000));

TEST(Fnv1a, StableAndDistinct) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
}

// ---------------------------------------------------------------------------
// Substreams: the determinism contract of the parallel study runner. Each
// country's work draws only from substream(seed, name) streams, so the
// values below are load-bearing — changing them silently changes every
// recorded study result.
// ---------------------------------------------------------------------------

TEST(RngSubstream, MatchesSeedThenFork) {
  Rng a = Rng::substream(7, "session-EG");
  Rng b = Rng(7).fork("session-EG");
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngSubstream, GoldenValuesStableAcrossPlatforms) {
  // First draw of the streams the 23-country study actually uses.
  // Regenerate with: Rng::substream(seed, name).next() — but treat any
  // change as a determinism break, not a test to update casually.
  EXPECT_EQ(Rng::substream(7, "session-EG").next(), 0x2c6b9c402162ff1aULL);
  EXPECT_EQ(Rng::substream(7, "session-PK").next(), 0xf93a143850ca1784ULL);
  EXPECT_EQ(Rng::substream(7, "analyze-EG").next(), 0x07d49bcf3e540a2dULL);
  EXPECT_EQ(Rng::substream(1234, "session-EG").next(), 0xcfd73b89b52b2adbULL);
}

TEST(RngSubstream, IndependentOfDrawOrderAndOtherStreams) {
  // Deriving EG's stream is unaffected by how much PK's stream has drawn —
  // the property that makes parallel scheduling irrelevant to results.
  Rng pk = Rng::substream(7, "session-PK");
  for (int i = 0; i < 1000; ++i) pk.next();
  Rng eg_after = Rng::substream(7, "session-EG");
  Rng eg_fresh = Rng::substream(7, "session-EG");
  for (int i = 0; i < 32; ++i) EXPECT_EQ(eg_after.next(), eg_fresh.next());
}

TEST(RngSubstream, PairwiseIndependentLooking) {
  // Across the study's country streams, first draws never collide and
  // pairwise identical-draw counts stay near zero over a long window.
  const char* isos[] = {"AE", "AR", "AT", "AU", "BD", "BR", "CA", "DE", "EG", "ES", "FR",
                        "GB", "IN", "IT", "JO", "JP", "KE", "MX", "NZ", "PK", "QA", "RW",
                        "SA", "US", "ZA"};
  std::vector<Rng> streams;
  std::set<uint64_t> first_draws;
  for (const char* iso : isos) {
    streams.push_back(Rng::substream(7, std::string("session-") + iso));
    first_draws.insert(Rng::substream(7, std::string("session-") + iso).next());
  }
  EXPECT_EQ(first_draws.size(), std::size(isos));
  for (size_t a = 0; a < streams.size(); ++a) {
    for (size_t b = a + 1; b < streams.size(); ++b) {
      Rng ra = streams[a], rb = streams[b];
      int same = 0;
      for (int i = 0; i < 256; ++i) {
        if (ra.next() == rb.next()) ++same;
      }
      EXPECT_LE(same, 1) << isos[a] << " vs " << isos[b];
    }
  }
}

TEST(RngSubstream, SeedSeparation) {
  // The same country under different study seeds gets a different stream.
  EXPECT_NE(Rng::substream(7, "session-EG").next(),
            Rng::substream(8, "session-EG").next());
}

}  // namespace
}  // namespace gam::util
