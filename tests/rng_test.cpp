#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace saps {
namespace {

TEST(SplitMix64, DeterministicSequence) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextFloatInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const float v = rng.next_float();
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 1.0f);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NextBelowStaysBelow) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(21);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.next_normal();
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(DeriveSeed, Deterministic) {
  EXPECT_EQ(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
}

TEST(DeriveSeed, TagsChangeResult) {
  const auto base = derive_seed(99);
  EXPECT_NE(base, derive_seed(99, 1));
  EXPECT_NE(derive_seed(99, 1), derive_seed(99, 2));
  EXPECT_NE(derive_seed(99, 1, 1), derive_seed(99, 1, 2));
  EXPECT_NE(derive_seed(99, 1, 1, 1), derive_seed(99, 1, 1, 2));
}

TEST(DeriveSeed, ChildStreamsUncorrelated) {
  // Streams seeded from neighboring tags should not collide over a window.
  Rng a(derive_seed(5, 0));
  Rng b(derive_seed(5, 1));
  int same = 0;
  for (int i = 0; i < 256; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

class RngRangeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngRangeTest, MeanOfUniformIsCentered) {
  Rng rng(GetParam());
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngRangeTest,
                         ::testing::Values(1, 2, 42, 1234567, 0xdeadbeef));

}  // namespace
}  // namespace saps
