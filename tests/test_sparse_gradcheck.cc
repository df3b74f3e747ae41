/**
 * @file
 * Finite-difference gradient checks for the CSB sparse executors.
 *
 * sparseConvBackwardData and sparseConvBackwardWeights must be the
 * exact adjoints of sparseConvForward under a random CSB mask: for the
 * scalar loss L = <forward(x, w), dy>, central differences of L match
 * the analytic dx and dW. Convolution is bilinear, so the central
 * difference of L along any single input or weight coordinate is
 * *linear* in the perturbation — a large step (0.25) makes the
 * truncation error exactly zero and leaves only float rounding, which
 * is what lets these checks run at 1e-3 tolerance in fp32.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "brute_force_macs.h"
#include "common/rng.h"
#include "sparse/csb.h"
#include "sparse/mask.h"
#include "sparse/sparse_conv.h"

namespace procrustes {
namespace sparse {
namespace {

/** Masked random filters at a given density. */
Tensor
maskedFilters(int64_t k, int64_t c, int64_t kernel, double density,
              uint64_t seed)
{
    Xorshift128Plus rng(seed);
    Tensor w(Shape{k, c, kernel, kernel});
    w.fillGaussian(rng, 0.5f);
    SyntheticMaskConfig cfg;
    cfg.targetDensity = density;
    cfg.seed = seed + 1;
    const SparsityMask m = makeSyntheticMask(k, c, kernel, kernel, cfg);
    for (int64_t i = 0; i < w.numel(); ++i) {
        if (!m.bits[static_cast<size_t>(i)])
            w.at(i) = 0.0f;
    }
    return w;
}

/** L = <sparseConvForward(x, w), dy>, accumulated in double. */
double
sparseLoss(const Tensor &x, const Tensor &w, const Tensor &dy,
           int64_t stride, int64_t pad)
{
    const CsbTensor csb = CsbTensor::encodeConvFilters(w);
    const Tensor y = sparseConvForward(x, csb, stride, pad);
    const float *py = y.data();
    const float *pdy = dy.data();
    double loss = 0.0;
    for (int64_t i = 0; i < y.numel(); ++i)
        loss += static_cast<double>(py[i]) * pdy[i];
    return loss;
}

struct GradCase
{
    int64_t stride;
    int64_t pad;
};

class SparseGradCheck : public ::testing::TestWithParam<GradCase>
{
};

TEST_P(SparseGradCheck, BackwardDataMatchesFiniteDifferences)
{
    const GradCase gc = GetParam();
    const Tensor w = maskedFilters(6, 3, 3, 0.4, 101);
    const CsbTensor csb = CsbTensor::encodeConvFilters(w);

    Xorshift128Plus rng(103);
    Tensor x(Shape{2, 3, 7, 8});
    x.fillGaussian(rng, 1.0f);
    const Tensor y = sparseConvForward(x, csb, gc.stride, gc.pad);
    Tensor dy(y.shape());
    dy.fillGaussian(rng, 1.0f);

    const Tensor dx =
        sparseConvBackwardData(dy, csb, x.shape(), gc.stride, gc.pad);

    const float eps = 0.25f;
    const int64_t n = x.numel();
    const int64_t step = std::max<int64_t>(1, n / 24);
    for (int64_t i = 0; i < n; i += step) {
        const float orig = x.at(i);
        x.at(i) = orig + eps;
        const double lp = sparseLoss(x, w, dy, gc.stride, gc.pad);
        x.at(i) = orig - eps;
        const double lm = sparseLoss(x, w, dy, gc.stride, gc.pad);
        x.at(i) = orig;
        const double numeric = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(dx.at(i), numeric,
                    1e-3 * std::max(1.0, std::fabs(numeric)))
            << "stride=" << gc.stride << " pad=" << gc.pad << " x[" << i
            << "]";
    }
}

TEST_P(SparseGradCheck, BackwardWeightsMatchesFiniteDifferences)
{
    const GradCase gc = GetParam();
    Tensor w = maskedFilters(5, 3, 3, 0.4, 107);
    const CsbTensor csb = CsbTensor::encodeConvFilters(w);

    Xorshift128Plus rng(109);
    Tensor x(Shape{2, 3, 7, 8});
    x.fillGaussian(rng, 1.0f);
    const Tensor y = sparseConvForward(x, csb, gc.stride, gc.pad);
    Tensor dy(y.shape());
    dy.fillGaussian(rng, 1.0f);

    Tensor dw(w.shape());
    sparseConvBackwardWeights(x, dy, csb, gc.stride, gc.pad, &dw);

    // Pruned positions must receive exactly nothing.
    for (int64_t i = 0; i < w.numel(); ++i) {
        if (w.at(i) == 0.0f)
            ASSERT_EQ(dw.at(i), 0.0f) << "pruned w[" << i << "]";
    }

    const float eps = 0.25f;
    int checked = 0;
    int64_t next = 0;
    const int64_t stride_i = std::max<int64_t>(1, w.numel() / 48);
    for (int64_t i = 0; i < w.numel() && checked < 24; ++i) {
        if (w.at(i) == 0.0f || i < next)
            continue;   // only live taps carry gradient
        next = i + stride_i;
        ++checked;
        const float orig = w.at(i);
        w.at(i) = orig + eps;
        const double lp = sparseLoss(x, w, dy, gc.stride, gc.pad);
        w.at(i) = orig - eps;
        const double lm = sparseLoss(x, w, dy, gc.stride, gc.pad);
        w.at(i) = orig;
        const double numeric = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(dw.at(i), numeric,
                    1e-3 * std::max(1.0, std::fabs(numeric)))
            << "stride=" << gc.stride << " pad=" << gc.pad << " w[" << i
            << "]";
    }
    EXPECT_GT(checked, 0);
}

// Stride-1/stride-2 and pad-0/pad-1 corners, per the training shapes
// the conv layers actually run.
INSTANTIATE_TEST_SUITE_P(Geometries, SparseGradCheck,
                         ::testing::Values(GradCase{1, 1}, GradCase{1, 0},
                                           GradCase{2, 1},
                                           GradCase{2, 0}));

/** Zero out a deterministic fraction of a tensor (ReLU-like zeros). */
void
zeroSome(Tensor *t, uint64_t seed, double zero_fraction)
{
    Xorshift128Plus rng(seed);
    for (int64_t i = 0; i < t->numel(); ++i) {
        if (static_cast<double>(rng.next() % 1000) <
            zero_fraction * 1000.0)
            t->at(i) = 0.0f;
    }
}

TEST_P(SparseGradCheck, ActivationSparseBackwardsStayExactAdjoints)
{
    // ReLU-zero activations and gradient zeros present: the skipping
    // executors must still be the exact adjoints of the forward.
    const GradCase gc = GetParam();
    const Tensor w = maskedFilters(6, 3, 3, 0.4, 211);
    const CsbTensor csb = CsbTensor::encodeConvFilters(w);

    Xorshift128Plus rng(223);
    Tensor x(Shape{2, 3, 7, 8});
    x.fillGaussian(rng, 1.0f);
    zeroSome(&x, 227, 0.5);
    int64_t fw_macs = -1;
    const Tensor y = sparseConvForward(x, csb, gc.stride, gc.pad, &fw_macs);
    Tensor dy(y.shape());
    dy.fillGaussian(rng, 1.0f);
    zeroSome(&dy, 229, 0.5);

    int64_t bw_data_macs = -1;
    const Tensor dx = sparseConvBackwardData(dy, csb, x.shape(),
                                             gc.stride, gc.pad,
                                             &bw_data_macs);
    Tensor dw(w.shape());
    int64_t bw_weight_macs = -1;
    sparseConvBackwardWeights(x, dy, csb, gc.stride, gc.pad, &dw,
                              &bw_weight_macs);

    // dx against central differences (bilinear => exact up to fp).
    const float eps = 0.25f;
    const int64_t n = x.numel();
    const int64_t step = std::max<int64_t>(1, n / 16);
    for (int64_t i = 0; i < n; i += step) {
        const float orig = x.at(i);
        x.at(i) = orig + eps;
        const double lp = sparseLoss(x, w, dy, gc.stride, gc.pad);
        x.at(i) = orig - eps;
        const double lm = sparseLoss(x, w, dy, gc.stride, gc.pad);
        x.at(i) = orig;
        const double numeric = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(dx.at(i), numeric,
                    1e-3 * std::max(1.0, std::fabs(numeric)))
            << "x[" << i << "]";
    }

    // dW against central differences on live taps.
    Tensor wp = w;
    int checked = 0;
    const int64_t stride_i = std::max<int64_t>(1, w.numel() / 24);
    for (int64_t i = 0; i < w.numel() && checked < 12; i += stride_i) {
        if (wp.at(i) == 0.0f)
            continue;
        ++checked;
        const float orig = wp.at(i);
        wp.at(i) = orig + eps;
        const double lp = sparseLoss(x, wp, dy, gc.stride, gc.pad);
        wp.at(i) = orig - eps;
        const double lm = sparseLoss(x, wp, dy, gc.stride, gc.pad);
        wp.at(i) = orig;
        const double numeric = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(dw.at(i), numeric,
                    1e-3 * std::max(1.0, std::fabs(numeric)))
            << "w[" << i << "]";
    }
    EXPECT_GT(checked, 0);

    // The executors' own MAC tallies must match a brute force that
    // honours mask + activation zeros.
    const PhaseMacs expected =
        bruteForceConvMacs(w, x, dy, gc.stride, gc.pad);
    EXPECT_EQ(fw_macs, expected.forward);
    EXPECT_EQ(bw_data_macs, expected.backwardData);
    EXPECT_EQ(bw_weight_macs, expected.backwardWeight);

    // Zeros present => strictly fewer executed MACs than the
    // weight-only forward count.
    EXPECT_LT(bw_data_macs, fw_macs);
    EXPECT_LT(bw_weight_macs, fw_macs);
}

TEST(SparseGradCheck, SkippingExecutorsMatchDenseOperandResults)
{
    // Skipping a zero operand must not change the numbers at all:
    // compare against a run where the zeros are replaced by an
    // explicit dense traversal (the naive adjoint formulas).
    const Tensor w = maskedFilters(4, 3, 3, 0.5, 251);
    const CsbTensor csb = CsbTensor::encodeConvFilters(w);
    Xorshift128Plus rng(257);
    Tensor x(Shape{2, 3, 6, 6});
    x.fillGaussian(rng, 1.0f);
    zeroSome(&x, 263, 0.6);
    const Tensor y = sparseConvForward(x, csb, 1, 1);
    Tensor dy(y.shape());
    dy.fillGaussian(rng, 1.0f);
    zeroSome(&dy, 269, 0.6);

    const Tensor dx = sparseConvBackwardData(dy, csb, x.shape(), 1, 1);
    Tensor dw(w.shape());
    sparseConvBackwardWeights(x, dy, csb, 1, 1, &dw);

    // Reference: dense loop nests over the same operands.
    Tensor dx_ref(x.shape());
    Tensor dw_ref(w.shape());
    const Shape &ws = w.shape();
    for (int64_t in = 0; in < 2; ++in) {
        for (int64_t ok = 0; ok < ws[0]; ++ok) {
            for (int64_t ic = 0; ic < ws[1]; ++ic) {
                for (int64_t r = 0; r < 3; ++r) {
                    for (int64_t s = 0; s < 3; ++s) {
                        const float wt = w(ok, ic, r, s);
                        if (wt == 0.0f)
                            continue;
                        for (int64_t p = 0; p < 6; ++p) {
                            const int64_t ih = p + r - 1;
                            if (ih < 0 || ih >= 6)
                                continue;
                            for (int64_t q = 0; q < 6; ++q) {
                                const int64_t iw = q + s - 1;
                                if (iw < 0 || iw >= 6)
                                    continue;
                                const float g = dy(in, ok, p, q);
                                dx_ref(in, ic, ih, iw) += wt * g;
                                dw_ref(ok, ic, r, s) +=
                                    g * x(in, ic, ih, iw);
                            }
                        }
                    }
                }
            }
        }
    }
    for (int64_t i = 0; i < dx.numel(); ++i)
        ASSERT_NEAR(dx.at(i), dx_ref.at(i),
                    1e-4f * (1.0f + std::fabs(dx_ref.at(i))))
            << "dx[" << i << "]";
    for (int64_t i = 0; i < dw.numel(); ++i)
        ASSERT_NEAR(dw.at(i), dw_ref.at(i),
                    1e-4f * (1.0f + std::fabs(dw_ref.at(i))))
            << "dw[" << i << "]";
}

TEST(SparseGradCheck, BackwardWeightsAccumulatesAcrossCalls)
{
    // Param::grad semantics: += into the given tensor, never overwrite.
    const Tensor w = maskedFilters(3, 2, 3, 0.5, 113);
    const CsbTensor csb = CsbTensor::encodeConvFilters(w);
    Xorshift128Plus rng(127);
    Tensor x(Shape{1, 2, 6, 6});
    x.fillGaussian(rng, 1.0f);
    const Tensor y = sparseConvForward(x, csb, 1, 1);
    Tensor dy(y.shape());
    dy.fillGaussian(rng, 1.0f);

    Tensor once(w.shape());
    sparseConvBackwardWeights(x, dy, csb, 1, 1, &once);
    Tensor twice(w.shape());
    sparseConvBackwardWeights(x, dy, csb, 1, 1, &twice);
    sparseConvBackwardWeights(x, dy, csb, 1, 1, &twice);
    for (int64_t i = 0; i < once.numel(); ++i)
        ASSERT_NEAR(twice.at(i), 2.0f * once.at(i),
                    1e-4f * (1.0f + std::fabs(once.at(i))))
            << i;
}

} // namespace
} // namespace sparse
} // namespace procrustes
