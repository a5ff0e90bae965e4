#include "common/vec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"

namespace gupt {
namespace {

TEST(VecTest, Dot) {
  EXPECT_DOUBLE_EQ(vec::Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(vec::Dot({}, {}), 0.0);
}

TEST(VecTest, SquaredDistance) {
  EXPECT_DOUBLE_EQ(vec::SquaredDistance({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(vec::SquaredDistance({1, 1}, {1, 1}), 0.0);
}

TEST(VecTest, Norm) {
  EXPECT_DOUBLE_EQ(vec::Norm({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(vec::Norm({0, 0, 0}), 0.0);
}

TEST(VecTest, AddSubScale) {
  Row a = {1, 2}, b = {10, 20};
  EXPECT_EQ(vec::Add(a, b), (Row{11, 22}));
  EXPECT_EQ(vec::Sub(b, a), (Row{9, 18}));
  EXPECT_EQ(vec::Scale(a, 3.0), (Row{3, 6}));
}

TEST(VecTest, InPlaceOps) {
  Row a = {1, 2};
  vec::AddInPlace(&a, {4, 5});
  EXPECT_EQ(a, (Row{5, 7}));
  vec::ScaleInPlace(&a, 2.0);
  EXPECT_EQ(a, (Row{10, 14}));
}

TEST(VecTest, ClampScalar) {
  EXPECT_DOUBLE_EQ(vec::ClampScalar(5.0, 0.0, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(vec::ClampScalar(-1.0, 0.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(vec::ClampScalar(2.0, 0.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(vec::ClampScalar(2.0, 2.0, 2.0), 2.0);
}

TEST(VecTest, ClampVector) {
  Row v = {-5, 0.5, 10};
  Row lo = {0, 0, 0}, hi = {1, 1, 1};
  EXPECT_EQ(vec::Clamp(v, lo, hi), (Row{0, 0.5, 1}));
}

TEST(StatsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(stats::Mean({2, 4, 6}), 4.0);
  EXPECT_DOUBLE_EQ(stats::Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stats::Mean({-1, 1}), 0.0);
}

TEST(StatsTest, VarianceBasics) {
  EXPECT_DOUBLE_EQ(stats::Variance({5, 5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(stats::Variance({1}), 0.0);
  EXPECT_DOUBLE_EQ(stats::Variance({}), 0.0);
  // Population variance of {2, 4} is 1.
  EXPECT_DOUBLE_EQ(stats::Variance({2, 4}), 1.0);
}

TEST(StatsTest, StdDev) {
  EXPECT_DOUBLE_EQ(stats::StdDev({2, 4}), 1.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(stats::Quantile(xs, 0.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(stats::Quantile(xs, 1.0).value(), 4.0);
  EXPECT_DOUBLE_EQ(stats::Quantile(xs, 0.5).value(), 2.5);
  EXPECT_DOUBLE_EQ(stats::Quantile({7}, 0.5).value(), 7.0);
}

TEST(StatsTest, QuantileSortsInput) {
  EXPECT_DOUBLE_EQ(stats::Quantile({9, 1, 5}, 0.5).value(), 5.0);
}

TEST(StatsTest, QuantileErrors) {
  EXPECT_FALSE(stats::Quantile({}, 0.5).ok());
  EXPECT_FALSE(stats::Quantile({1.0}, -0.1).ok());
  EXPECT_FALSE(stats::Quantile({1.0}, 1.1).ok());
}

/// The quantile as the full-sort implementation computed it: the
/// reference the selection-based stats::Quantile must reproduce bit for
/// bit.
double SortedQuantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

std::uint64_t Bits(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

TEST(StatsTest, QuantileBySelectionMatchesSortBitForBit) {
  const std::vector<double> fixed_qs = {0.0, 0.25, 0.5, 0.75, 1.0};
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const std::size_t n = 1 + rng.UniformUint64(2000);
    // Heavy ties: draw from a pool of a few distinct values (both signed
    // zeros among them), occasionally mixed with continuous values.
    std::vector<double> pool = {-0.0, 0.0};
    const std::size_t distinct = 1 + rng.UniformUint64(8);
    for (std::size_t i = 0; i < distinct; ++i) {
      pool.push_back(rng.UniformDouble(-50.0, 50.0));
    }
    const bool mixed = rng.UniformUint64(3) == 0;
    std::vector<double> xs(n);
    for (double& x : xs) {
      x = mixed && rng.UniformUint64(2) == 0
              ? rng.Gaussian(0.0, 20.0)
              : pool[rng.UniformUint64(pool.size())];
    }
    std::vector<double> qs = fixed_qs;
    for (int i = 0; i < 5; ++i) qs.push_back(rng.UniformDouble());
    for (double q : qs) {
      const double expected = SortedQuantile(xs, q);
      const double actual = stats::Quantile(xs, q).value();
      if (expected == 0.0) {
        // std::sort never ordered -0.0 against 0.0 deterministically
        // either, so only the value is pinned for a zero result.
        EXPECT_EQ(actual, expected) << "seed " << seed << " q " << q;
      } else {
        EXPECT_EQ(Bits(actual), Bits(expected))
            << "seed " << seed << " n " << n << " q " << q << ": "
            << actual << " vs " << expected;
      }
    }
  }
}

TEST(StatsTest, Rmse) {
  EXPECT_DOUBLE_EQ(stats::Rmse({1, 2}, {1, 2}), 0.0);
  EXPECT_DOUBLE_EQ(stats::Rmse({0, 0}, {3, 4}), std::sqrt(12.5));
  EXPECT_DOUBLE_EQ(stats::Rmse({}, {}), 0.0);
}

TEST(StatsTest, MeanRows) {
  std::vector<Row> rows = {{1, 10}, {3, 30}};
  Row mean = stats::MeanRows(rows).value();
  EXPECT_EQ(mean, (Row{2, 20}));
}

TEST(StatsTest, MeanRowsErrors) {
  EXPECT_FALSE(stats::MeanRows({}).ok());
  EXPECT_FALSE(stats::MeanRows({{1, 2}, {1}}).ok());
}

}  // namespace
}  // namespace gupt
