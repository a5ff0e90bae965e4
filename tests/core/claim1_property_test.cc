// Property test for Claim 1 (paper §4.2): resampling is free.
//
// With gamma groups of disjoint blocks (l = gamma * n / beta blocks in
// total), Claim 1 makes two statements:
//
//  (a) the Laplace scale gamma * |max-min| / (l * epsilon) collapses to
//      beta * |max-min| / (n * epsilon) — identical to gamma = 1; and
//  (b) the estimation error of the block average does not get worse. In
//      this implementation the gamma groups are INDEPENDENT disjoint
//      partitions, so the resampled block average is the mean of gamma
//      i.i.d. copies of the gamma = 1 estimator and its variance over
//      partition draws is Var_1 / gamma.
//
// (a) is exact arithmetic, asserted via AggregationNoiseScale. (b) is
// checked empirically over a pre-registered seeded (n, beta, gamma) grid
// with a per-block MEDIAN as the aggregated statistic — a nonlinear f,
// so the block average genuinely varies across partition draws (for a
// linear f like the mean, every disjoint partition gives exactly the
// sample mean and the variance is zero on both sides).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/sample_aggregate.h"
#include "data/partitioner.h"

namespace gupt {
namespace {

// Pre-registered: the dataset and every partition draw derive from this
// seed, so the variance comparison below is deterministic. The 0.85
// headroom factor in the assertion holds with large margin for the
// expected ratio 1/gamma <= 1/2 given ~200-trial variance estimates.
constexpr std::uint64_t kClaim1Seed = 0xc1a1140001ULL;
constexpr std::size_t kTrials = 200;

/// Skewed (exponential-like) data so the per-block median has real
/// partition-to-partition variance.
std::vector<double> SkewedData(std::size_t n, Rng* rng) {
  std::vector<double> values(n);
  for (double& v : values) {
    v = -std::log(1.0 - rng->UniformDouble());
  }
  return values;
}

double MedianOfBlock(const DatasetView& block) {
  std::vector<double> values(block.col(0), block.col(0) + block.num_rows());
  std::sort(values.begin(), values.end());
  const std::size_t m = values.size();
  return m % 2 == 1 ? values[m / 2]
                    : 0.5 * (values[m / 2 - 1] + values[m / 2]);
}

/// The block-average estimator of one partition draw: mean over blocks of
/// the per-block median.
double BlockAverage(const BlockSet& blocks) {
  double sum = 0.0;
  for (std::size_t b = 0; b < blocks.num_blocks(); ++b) {
    sum += MedianOfBlock(blocks.view(b));
  }
  return sum / static_cast<double>(blocks.num_blocks());
}

/// Empirical variance of the estimator over kTrials independent
/// partition draws (distinct RNG streams under the registered seed).
double EstimatorVariance(const Dataset& data, std::size_t beta,
                         std::size_t gamma, std::uint64_t stream_base) {
  std::vector<double> estimates;
  estimates.reserve(kTrials);
  for (std::size_t t = 0; t < kTrials; ++t) {
    Rng rng(kClaim1Seed, stream_base + t);
    auto blocks = PartitionResampledView(data, beta, gamma, &rng);
    EXPECT_TRUE(blocks.ok()) << blocks.status();
    estimates.push_back(BlockAverage(*blocks));
  }
  double mean = 0.0;
  for (double e : estimates) mean += e;
  mean /= static_cast<double>(estimates.size());
  double var = 0.0;
  for (double e : estimates) var += (e - mean) * (e - mean);
  return var / static_cast<double>(estimates.size() - 1);
}

TEST(Claim1PropertyTest, NoiseScaleIsExactlyGammaInvariant) {
  // Part (a): gamma * w / (l * eps) with l = gamma * n / beta equals the
  // gamma = 1 scale bit-for-bit — same multiplication, reordered only by
  // an exact power-of-two-free cancellation... asserted exactly because
  // both sides are computed by the same production routine.
  for (std::size_t n : {512u, 1024u, 4096u}) {
    for (std::size_t beta : {16u, 32u}) {
      for (std::size_t gamma : {2u, 4u, 8u}) {
        for (double epsilon : {0.1, 1.0, 2.5}) {
          const std::size_t l1 = n / beta;
          auto base = AggregationNoiseScale(10.0, l1, 1, epsilon);
          auto resampled =
              AggregationNoiseScale(10.0, gamma * l1, gamma, epsilon);
          ASSERT_TRUE(base.ok());
          ASSERT_TRUE(resampled.ok());
          EXPECT_DOUBLE_EQ(*base, *resampled)
              << "n=" << n << " beta=" << beta << " gamma=" << gamma
              << " eps=" << epsilon;
        }
      }
    }
  }
}

TEST(Claim1PropertyTest, ResampledEstimatorVarianceIsNoWorse) {
  // Part (b), across the seeded grid. Each grid point gets its own
  // stream range so adding grid points never perturbs existing draws.
  struct GridPoint {
    std::size_t n;
    std::size_t beta;
  };
  const GridPoint grid[] = {{512, 16}, {512, 32}, {1024, 32}};
  std::uint64_t stream = 0;
  for (const GridPoint& g : grid) {
    Rng data_rng(kClaim1Seed, 0xda7a0000 + g.n + g.beta);
    const Dataset data =
        Dataset::FromColumn(SkewedData(g.n, &data_rng)).value();
    const double var1 = EstimatorVariance(data, g.beta, 1, stream);
    stream += kTrials;
    ASSERT_GT(var1, 0.0);
    for (std::size_t gamma : {2u, 4u}) {
      const double varg = EstimatorVariance(data, g.beta, gamma, stream);
      stream += kTrials;
      // Claim 1's "no worse", with headroom: independence of the gamma
      // groups predicts varg ~= var1 / gamma, far below var1.
      EXPECT_LT(varg, 0.85 * var1)
          << "n=" << g.n << " beta=" << g.beta << " gamma=" << gamma
          << " var1=" << var1 << " varg=" << varg;
      // And the 1/gamma scaling itself, with generous two-sided slack
      // for 200-trial variance estimates.
      const double predicted = var1 / static_cast<double>(gamma);
      EXPECT_LT(varg, 1.6 * predicted);
      EXPECT_GT(varg, 0.4 * predicted);
    }
  }
}

}  // namespace
}  // namespace gupt
