/**
 * @file
 * Tests for sparsity masks and the synthetic mask generators.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/math_utils.h"
#include "common/rng.h"
#include "sparse/mask.h"

namespace procrustes {
namespace sparse {
namespace {

TEST(Mask, FromTensorCapturesZeroPattern)
{
    Tensor w(Shape{2, 2, 1, 1});
    w(0, 0, 0, 0) = 1.0f;
    w(1, 1, 0, 0) = -2.0f;
    const SparsityMask m = SparsityMask::fromTensor(w);
    EXPECT_EQ(m.nnz(), 2);
    EXPECT_DOUBLE_EQ(m.density(), 0.5);
    EXPECT_EQ(m.blockNnz(0, 0), 1);
    EXPECT_EQ(m.blockNnz(0, 1), 0);
}

TEST(Mask, FromRank2TensorTreatsFcAsOneByOneKernels)
{
    Tensor w(Shape{3, 4});
    w(2, 3) = 1.0f;
    const SparsityMask m = SparsityMask::fromTensor(w);
    EXPECT_EQ(m.K, 3);
    EXPECT_EQ(m.C, 4);
    EXPECT_EQ(m.R, 1);
    EXPECT_EQ(m.blockNnz(2, 3), 1);
}

TEST(Mask, DenseMaskIsAllOnes)
{
    const SparsityMask m = SparsityMask::dense(3, 4, 3, 3);
    EXPECT_EQ(m.nnz(), 3 * 4 * 9);
    EXPECT_DOUBLE_EQ(m.density(), 1.0);
}

TEST(Mask, TileNnzSumsBlocks)
{
    SyntheticMaskConfig cfg;
    cfg.targetDensity = 0.3;
    cfg.seed = 5;
    const SparsityMask m = makeSyntheticMask(8, 8, 3, 3, cfg);
    int64_t manual = 0;
    for (int64_t k = 2; k < 5; ++k) {
        for (int64_t c = 1; c < 7; ++c)
            manual += m.blockNnz(k, c);
    }
    EXPECT_EQ(m.tileNnz(2, 5, 1, 7), manual);
    EXPECT_EQ(m.tileNnz(0, 8, 0, 8), m.nnz());
    // Empty spans along either axis hold nothing.
    EXPECT_EQ(m.tileNnz(3, 3, 0, 8), 0);
    EXPECT_EQ(m.tileNnz(0, 8, 4, 4), 0);
}

/** Density sweep: generated masks hit the target exactly. */
class SyntheticMaskDensity : public ::testing::TestWithParam<double>
{
};

TEST_P(SyntheticMaskDensity, HitsGlobalTarget)
{
    SyntheticMaskConfig cfg;
    cfg.targetDensity = GetParam();
    cfg.seed = 11;
    const SparsityMask m = makeSyntheticMask(32, 16, 3, 3, cfg);
    const auto expected = static_cast<int64_t>(
        std::llround(cfg.targetDensity * 32 * 16 * 9));
    EXPECT_EQ(m.nnz(), expected);
}

INSTANTIATE_TEST_SUITE_P(Densities, SyntheticMaskDensity,
                         ::testing::Values(0.05, 0.1, 0.2, 0.5, 1.0));

TEST(SyntheticMask, KernelSigmaControlsNonUniformity)
{
    // Larger lognormal sigma must spread per-kernel densities wider —
    // this is what drives the load-imbalance experiments.
    auto spread = [](double sigma) {
        SyntheticMaskConfig cfg;
        cfg.targetDensity = 0.2;
        cfg.kernelSigma = sigma;
        cfg.seed = 13;
        const SparsityMask m = makeSyntheticMask(32, 32, 3, 3, cfg);
        std::vector<double> densities;
        for (int64_t k = 0; k < 32; ++k) {
            for (int64_t c = 0; c < 32; ++c)
                densities.push_back(m.blockDensity(k, c));
        }
        return stddev(densities);
    };
    EXPECT_LT(spread(0.1), spread(1.0));
    EXPECT_LT(spread(1.0), spread(2.5) + 1e-9);
}

TEST(SyntheticMask, DeterministicPerSeed)
{
    SyntheticMaskConfig cfg;
    cfg.targetDensity = 0.15;
    cfg.seed = 17;
    const SparsityMask a = makeSyntheticMask(8, 8, 3, 3, cfg);
    const SparsityMask b = makeSyntheticMask(8, 8, 3, 3, cfg);
    EXPECT_EQ(a.bits, b.bits);
    cfg.seed = 18;
    const SparsityMask c = makeSyntheticMask(8, 8, 3, 3, cfg);
    EXPECT_NE(a.bits, c.bits);
}

TEST(QuantileStreamMask, DensityNearTargetWithEstimationLag)
{
    // The QE-driven mask generation mirrors the paper's observation
    // that estimation error tracks extra weights (7.5x -> 5.2x): the
    // achieved density may exceed 1/sparsity, but should stay within
    // about 2x of it and never fall far below.
    const double sparsity = 7.5;
    const SparsityMask m =
        maskFromQuantileStream(64, 32, 3, 3, sparsity, 1.0, 19);
    const double target = 1.0 / sparsity;
    EXPECT_GT(m.density(), 0.6 * target);
    EXPECT_LT(m.density(), 2.5 * target);
}

TEST(QuantileStreamMask, KeepsLargestMagnitudesPreferentially)
{
    // Kernels that got large synthetic scales should survive more:
    // correlation between block density and rank should be visibly
    // positive — verified via spread of densities being nonzero.
    const SparsityMask m =
        maskFromQuantileStream(32, 16, 3, 3, 5.0, 1.5, 23);
    std::vector<double> densities;
    for (int64_t k = 0; k < 32; ++k) {
        for (int64_t c = 0; c < 16; ++c)
            densities.push_back(m.blockDensity(k, c));
    }
    EXPECT_GT(stddev(densities), 0.05);
    // Some kernels nearly empty, some nearly full.
    EXPECT_LT(*std::min_element(densities.begin(), densities.end()),
              0.05);
    EXPECT_GT(*std::max_element(densities.begin(), densities.end()),
              0.5);
}

} // namespace
} // namespace sparse
} // namespace procrustes
