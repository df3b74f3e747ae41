/**
 * @file
 * Tests for the DUMIQUE streaming quantile estimator (Algorithm 4).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/math_utils.h"
#include "common/rng.h"
#include "sparse/quantile.h"

namespace procrustes {
namespace sparse {
namespace {

/** Stream `n` |N(0,1)| values through an estimator. */
std::vector<double>
halfNormalStream(int n, uint64_t seed)
{
    Xorshift128Plus rng(seed);
    std::vector<double> xs;
    xs.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        xs.push_back(std::fabs(rng.nextGaussian()));
    return xs;
}

TEST(Quantile, RejectsBadParameters)
{
    EXPECT_DEATH(QuantileEstimator(0.0), "quantile");
    EXPECT_DEATH(QuantileEstimator(1.0), "quantile");
    EXPECT_DEATH(QuantileEstimator(0.5, 0.0), "rho");
    EXPECT_DEATH(QuantileEstimator(0.5, 1e-3, -1.0), "initial");
}

TEST(Quantile, EstimateRisesTowardsLargeValues)
{
    QuantileEstimator qe(0.9);
    const double start = qe.estimate();
    for (int i = 0; i < 1000; ++i)
        qe.update(10.0);
    EXPECT_GT(qe.estimate(), start);
    EXPECT_EQ(qe.updates(), 1000u);
}

/**
 * Property sweep: for several target quantiles the estimate should
 * converge near the true quantile of a stationary half-normal stream.
 */
class QuantileConvergence : public ::testing::TestWithParam<double>
{
};

TEST_P(QuantileConvergence, ConvergesToTrueQuantile)
{
    const double q = GetParam();
    const auto xs = halfNormalStream(400000, 42);
    QuantileEstimator qe(q);
    for (double x : xs)
        qe.update(x);

    const double truth = exactQuantile(
        std::vector<double>(xs.begin(), xs.end()), q);
    // DUMIQUE is a stochastic-approximation method: accept 15%
    // relative error after a long stream.
    EXPECT_NEAR(qe.estimate(), truth, 0.15 * truth)
        << "target quantile " << q;
}

INSTANTIATE_TEST_SUITE_P(TargetQuantiles, QuantileConvergence,
                         ::testing::Values(0.5, 0.75, 0.9, 0.95));

TEST(Quantile, InsensitiveToInitialEstimate)
{
    // The paper reports negligible sensitivity to Q(0) and rho
    // (Section III-B); verify two very different initializations land
    // near each other.
    const auto xs = halfNormalStream(300000, 7);
    QuantileEstimator low(0.9, 1e-3, 1e-6);
    QuantileEstimator high(0.9, 1e-3, 10.0);
    for (double x : xs) {
        low.update(x);
        high.update(x);
    }
    EXPECT_NEAR(low.estimate(), high.estimate(),
                0.1 * high.estimate());
}

TEST(Quantile, TracksDistributionShift)
{
    // Gradients grow during training; the estimate must follow.
    QuantileEstimator qe(0.9);
    Xorshift128Plus rng(3);
    for (int i = 0; i < 200000; ++i)
        qe.update(std::fabs(rng.nextGaussian()));
    const double before = qe.estimate();
    for (int i = 0; i < 200000; ++i)
        qe.update(5.0 * std::fabs(rng.nextGaussian()));
    EXPECT_GT(qe.estimate(), 2.0 * before);
}

TEST(ParallelQuantile, MatchesScalarOnAverage)
{
    // The wide estimator compares all lanes of a group with the
    // estimate the group started from, so it lags the scalar one by up
    // to width - 1 steps; over a long stream the two land within 1e-6
    // of each other. The 1% bound still catches an estimator that
    // tracks the wrong statistic (a quantile of group means sat 26% low
    // at width 4).
    for (const int width : {2, 4, 8}) {
        for (const uint64_t seed : {1, 2, 3, 11}) {
            const auto xs = halfNormalStream(400000, seed);
            QuantileEstimator scalar(0.9);
            ParallelQuantileEstimator wide(0.9, width);
            for (double x : xs) {
                scalar.update(x);
                wide.update(x);
            }
            wide.flush();
            EXPECT_NEAR(wide.estimate(), scalar.estimate(),
                        0.01 * scalar.estimate())
                << "width=" << width << " seed=" << seed;
        }
    }
}

TEST(ParallelQuantile, FlushHandlesPartialGroup)
{
    ParallelQuantileEstimator qe(0.9, 4);
    qe.update(1.0);
    qe.update(1.0);
    const uint64_t before = qe.base().updates();
    qe.flush();
    EXPECT_EQ(qe.base().updates(), before + 1);
    qe.flush();   // idempotent on empty buffer
    EXPECT_EQ(qe.base().updates(), before + 1);
}

TEST(ParallelQuantile, WidthOneEqualsScalar)
{
    const auto xs = halfNormalStream(10000, 13);
    QuantileEstimator scalar(0.8);
    ParallelQuantileEstimator wide(0.8, 1);
    for (double x : xs) {
        scalar.update(x);
        wide.update(x);
    }
    EXPECT_DOUBLE_EQ(wide.estimate(), scalar.estimate());
}

TEST(ParallelQuantile, FourPerCycleThroughputContract)
{
    // The QE unit accepts a peak of 4 updates per cycle by folding
    // them into one estimator update; 4n updates -> n folds.
    ParallelQuantileEstimator qe(0.9, 4);
    for (int i = 0; i < 4000; ++i)
        qe.update(1.0);
    EXPECT_EQ(qe.base().updates(), 1000u);
}

} // namespace
} // namespace sparse
} // namespace procrustes
