/**
 * @file
 * Tests for the bf16 storage tier: the round-to-nearest-even helper,
 * precision-aware CSB encode + byte accounting, and the layer-level
 * bf16 path (weights rounded at encode, inputs rounded into the cache,
 * fp32 accumulation throughout). The compute contract is exactness —
 * a bf16-storage layer must equal the fp32 executors run on explicitly
 * bf16-rounded operands bit for bit — so those comparisons are
 * memcmp-strict; only the finite-difference gradchecks carry the loose
 * tolerance that quantized operands force on a numeric derivative.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "kernels/gemm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "sparse/csb.h"
#include "sparse/mask.h"
#include "sparse/sparse_conv.h"

namespace procrustes {
namespace {

/** Exact bit equality — distinguishes +0 from -0. */
bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(std::as_const(a).data(), std::as_const(b).data(),
                       sizeof(float) * a.numel()) == 0;
}

float
bitsToFloat(uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

uint32_t
floatToBits(float f)
{
    uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    return bits;
}

/** Prune a [O, I] or [K, C, R, S] tensor to the given density. */
void
pruneTo(Tensor *w, double density, uint64_t seed)
{
    sparse::SyntheticMaskConfig cfg;
    cfg.targetDensity = density;
    cfg.seed = seed;
    const Shape &s = w->shape();
    const sparse::SparsityMask m =
        s.rank() == 4
            ? sparse::makeSyntheticMask(s[0], s[1], s[2], s[3], cfg)
            : sparse::makeSyntheticMask(s[0], s[1], 1, 1, cfg);
    for (int64_t i = 0; i < w->numel(); ++i) {
        if (!m.bits[static_cast<size_t>(i)])
            w->at(i) = 0.0f;
    }
}

TEST(Bf16Round, RoundsToNearestEvenAndKeepsSpecials)
{
    // Exactly representable values pass through untouched.
    EXPECT_EQ(bf16Round(0.0f), 0.0f);
    EXPECT_EQ(bf16Round(1.0f), 1.0f);
    EXPECT_EQ(bf16Round(-2.5f), -2.5f);

    // 1.0 + 2^-8 sits exactly halfway between 1.0 and 1.0 + 2^-7 (the
    // bf16 ulp at 1.0): nearest-even keeps the even (all-zero
    // mantissa) side, 1.0.
    EXPECT_EQ(bf16Round(bitsToFloat(0x3f808000u)), 1.0f);
    // One fp32 ulp above the halfway point rounds up to 1.0 + 2^-7.
    EXPECT_EQ(floatToBits(bf16Round(bitsToFloat(0x3f808001u))),
              0x3f810000u);
    // The halfway point above an odd bf16 mantissa rounds up (to even).
    EXPECT_EQ(floatToBits(bf16Round(bitsToFloat(0x3f818000u))),
              0x3f820000u);

    // Sign is preserved, including on -0.
    EXPECT_EQ(floatToBits(bf16Round(-0.0f)), 0x80000000u);
    EXPECT_LT(bf16Round(-1.5f), 0.0f);

    // bf16 keeps the full fp32 exponent: small normals survive.
    EXPECT_NE(bf16Round(1e-38f), 0.0f);

    // Inf / NaN stay what they are (a NaN payload that truncates away
    // must not decay into Inf).
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(bf16Round(inf), inf);
    EXPECT_EQ(bf16Round(-inf), -inf);
    EXPECT_TRUE(std::isnan(bf16Round(std::nanf(""))));
    EXPECT_TRUE(std::isnan(bf16Round(bitsToFloat(0x7f800001u))));

    // Idempotent: a bf16 value re-rounds to itself.
    Xorshift128Plus rng(41);
    for (int i = 0; i < 100; ++i) {
        Tensor t(Shape{1});
        t.fillGaussian(rng, 3.0f);
        const float once = bf16Round(t.at(0));
        EXPECT_EQ(floatToBits(bf16Round(once)), floatToBits(once));
    }
}

TEST(Bf16Storage, PrecisionParsingAndNames)
{
    EXPECT_STREQ(precisionName(Precision::kFp32), "fp32");
    EXPECT_STREQ(precisionName(Precision::kBf16), "bf16");
    EXPECT_EQ(parsePrecision("fp32"), Precision::kFp32);
    EXPECT_EQ(parsePrecision("bf16"), Precision::kBf16);
    EXPECT_EQ(precisionBytes(Precision::kFp32), 4);
    EXPECT_EQ(precisionBytes(Precision::kBf16), 2);
    EXPECT_DEATH(parsePrecision("fp16"), "storage precision");
}

TEST(Bf16Storage, CsbEncodeRoundsValuesAndHalvesValueBytes)
{
    Xorshift128Plus rng(53);
    Tensor w(Shape{24, 40});
    w.fillGaussian(rng, 0.5f);
    pruneTo(&w, 0.4, 59);

    const auto fp32 = sparse::CsbTensor::encodeMatrix(w, 8);
    const auto bf16 =
        sparse::CsbTensor::encodeMatrix(w, 8, Precision::kBf16);

    // bf16 keeps the fp32 exponent range, so no live weight can round
    // to zero: the mask (and nnz) is precision-invariant.
    EXPECT_TRUE(bf16.sameMaskAs(fp32));
    EXPECT_EQ(bf16.nnz(), fp32.nnz());
    EXPECT_EQ(fp32.storagePrecision(), Precision::kFp32);
    EXPECT_EQ(bf16.storagePrecision(), Precision::kBf16);

    // Every packed value is the rounded fp32 value.
    for (int64_t t = 0; t < bf16.nnz(); ++t)
        EXPECT_EQ(bf16.valuesData()[t], bf16Round(fp32.valuesData()[t]))
            << t;

    // The byte model prices 2-byte values (pointers/mask unchanged).
    EXPECT_EQ(bf16.valueBytes() * 2, fp32.valueBytes());
    EXPECT_EQ(fp32.totalBytes() - bf16.totalBytes(),
              fp32.valueBytes() - bf16.valueBytes());
    EXPECT_EQ(sparse::CsbTensor::denseBytes(w.shape(),
                                            Precision::kBf16) *
                  2,
              sparse::CsbTensor::denseBytes(w.shape()));
}

TEST(Bf16Storage, LinearForwardEqualsExecutorOnRoundedOperands)
{
    const int64_t n = 6, i_ext = 21, o_ext = 17;
    nn::Linear layer(i_ext, o_ext, "fc", /*with_bias=*/false);
    layer.setBackend(kernels::KernelBackend::kSparse);
    layer.setStoragePrecision(Precision::kBf16);
    EXPECT_EQ(layer.storagePrecision(), Precision::kBf16);

    Xorshift128Plus rng(61);
    layer.weight().value.fillGaussian(rng, 0.5f);
    pruneTo(&layer.weight().value, 0.4, 67);
    Tensor x(Shape{n, i_ext});
    x.fillGaussian(rng, 1.0f);

    const Tensor y = layer.forward(x, true);

    // The bf16 tier is *storage* rounding only: the same fp32 executor
    // run on explicitly rounded operands must match bit for bit. The
    // layer runs fc as a 1x1 conv over the batch plane [1, I, 1, N].
    Tensor w4 = layer.weight().value;
    w4.reshape(Shape{o_ext, i_ext, 1, 1});
    const auto csb =
        sparse::CsbTensor::encodeConvFilters(w4, Precision::kBf16);
    const kernels::ConvTapPack pack = kernels::packConvTaps(csb, 1, n, 1, 0);
    const Tensor xr = bf16RoundedCopy(x);
    Tensor xp(Shape{1, i_ext, 1, n});
    kernels::transpose(xr.data(), n, i_ext, xp.data());
    const Tensor yp =
        sparse::sparseConvForward(xp, csb, 1, 0, nullptr, &pack);
    Tensor y_ref(Shape{n, o_ext});
    kernels::transpose(yp.data(), o_ext, n, y_ref.data());
    EXPECT_TRUE(bitwiseEqual(y, y_ref));
}

TEST(Bf16Storage, ConvTrainingStepEqualsExecutorOnRoundedOperands)
{
    nn::Conv2dConfig cfg;
    cfg.inChannels = 3;
    cfg.outChannels = 5;
    cfg.kernel = 3;
    cfg.stride = 1;
    cfg.pad = 1;
    cfg.bias = false;
    nn::Conv2d layer(cfg, "conv");
    layer.setBackend(kernels::KernelBackend::kSparse);
    layer.setStoragePrecision(Precision::kBf16);

    Xorshift128Plus rng(71);
    layer.weight().value.fillGaussian(rng, 0.5f);
    pruneTo(&layer.weight().value, 0.4, 73);
    Tensor x(Shape{2, 3, 7, 9});
    x.fillGaussian(rng, 1.0f);
    Tensor dy(Shape{2, 5, 7, 9});
    dy.fillGaussian(rng, 1.0f);

    const Tensor y = layer.forward(x, true);
    const Tensor dx = layer.backward(dy);

    const auto csb = sparse::CsbTensor::encodeConvFilters(
        layer.weight().value, Precision::kBf16);
    const Tensor xr = bf16RoundedCopy(x);
    const Tensor y_ref = sparse::sparseConvForward(xr, csb, 1, 1);
    const Tensor dx_ref =
        sparse::sparseConvBackwardData(dy, csb, x.shape(), 1, 1);
    Tensor dw_ref(layer.weight().value.shape());
    sparse::sparseConvBackwardWeights(xr, dy, csb, 1, 1, &dw_ref);

    EXPECT_TRUE(bitwiseEqual(y, y_ref));
    EXPECT_TRUE(bitwiseEqual(dx, dx_ref));
    EXPECT_TRUE(bitwiseEqual(layer.weight().grad, dw_ref));
}

/** L = <layer.forward(x), dy> for the FD checks below. */
double
linearLoss(nn::Linear *layer, const Tensor &x, const Tensor &dy)
{
    const Tensor y = layer->forward(x, true);
    const float *py = std::as_const(y).data();
    const float *pdy = std::as_const(dy).data();
    double loss = 0.0;
    for (int64_t i = 0; i < y.numel(); ++i)
        loss += static_cast<double>(py[i]) * pdy[i];
    return loss;
}

TEST(Bf16Storage, LinearGradientsMatchFiniteDifferences)
{
    // Central differences through the bf16-storage forward. The
    // quantization step near |x| ~ 1 is ~2^-8, small against the 0.25
    // probe, so the numeric derivative approximates the analytic one
    // to roughly the quantization/probe ratio — hence the loose 5e-2
    // tolerance (the fp32 path checks at 1e-3 elsewhere).
    const int64_t n = 4, i_ext = 15, o_ext = 9;
    nn::Linear layer(i_ext, o_ext, "fc", /*with_bias=*/false);
    layer.setBackend(kernels::KernelBackend::kSparse);
    layer.setStoragePrecision(Precision::kBf16);

    Xorshift128Plus rng(83);
    layer.weight().value.fillGaussian(rng, 0.5f);
    pruneTo(&layer.weight().value, 0.5, 89);
    Tensor x(Shape{n, i_ext});
    x.fillGaussian(rng, 1.0f);
    Tensor dy(Shape{n, o_ext});
    dy.fillGaussian(rng, 1.0f);

    layer.forward(x, true);
    const Tensor dx = layer.backward(dy);
    const Tensor dw = layer.weight().grad;

    const float eps = 0.25f;
    for (int64_t i = 0; i < x.numel(); ++i) {
        const float orig = x.at(i);
        x.at(i) = orig + eps;
        const double lp = linearLoss(&layer, x, dy);
        x.at(i) = orig - eps;
        const double lm = linearLoss(&layer, x, dy);
        x.at(i) = orig;
        const double numeric = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(dx.at(i), numeric,
                    5e-2 * std::max(1.0, std::fabs(numeric)))
            << "x[" << i << "]";
    }

    Tensor &w = layer.weight().value;
    for (int64_t i = 0; i < w.numel(); ++i) {
        if (w.at(i) == 0.0f) {
            ASSERT_EQ(dw.at(i), 0.0f) << "pruned w[" << i << "]";
            continue;
        }
        const float orig = w.at(i);
        w.at(i) = orig + eps;
        const double lp = linearLoss(&layer, x, dy);
        w.at(i) = orig - eps;
        const double lm = linearLoss(&layer, x, dy);
        w.at(i) = orig;
        const double numeric = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(dw.at(i), numeric,
                    5e-2 * std::max(1.0, std::fabs(numeric)))
            << "w[" << i << "]";
    }
}

/**
 * The mask-epoch tap-pack cache of a kSparse weight layer. `make(w)`
 * builds a fresh kSparse layer holding weights w and the shared bias.
 * Two steps with the same mask but different values: the cached tap
 * pack must be indistinguishable from a fresh layer that packs its
 * taps from scratch. A mask change, and then a batch `x_other` of a
 * different input geometry under the same mask, must each force a
 * repack.
 */
template <typename MakeLayer>
void
expectMaskStableRefresh(MakeLayer make, const Tensor &w, const Tensor &x,
                        const Tensor &dy, const Tensor &x_other)
{
    auto cached = make(w);
    const Shape bias_shape = cached->bias().value.shape();
    cached->forward(x, true);   // step 1 builds the tap pack
    cached->backward(dy);
    // Optimizer-like update: scale live values, keep the mask.
    for (int64_t i = 0; i < w.numel(); ++i)
        cached->weight().value.at(i) *= 1.5f;
    cached->weight().grad = Tensor(w.shape());
    cached->bias().grad = Tensor(bias_shape);
    const Tensor y2 = cached->forward(x, true);   // reuses the pack
    const Tensor dx2 = cached->backward(dy);

    auto fresh = make(cached->weight().value);
    const Tensor y_ref = fresh->forward(x, true);
    const Tensor dx_ref = fresh->backward(dy);

    EXPECT_TRUE(bitwiseEqual(y2, y_ref));
    EXPECT_TRUE(bitwiseEqual(dx2, dx_ref));
    EXPECT_TRUE(bitwiseEqual(cached->weight().grad,
                             fresh->weight().grad));
    EXPECT_TRUE(bitwiseEqual(cached->bias().grad, fresh->bias().grad));

    // A mask change (new pruning epoch) must force a fresh pack, not a
    // stale-geometry reuse.
    for (int64_t i = 0; i < w.numel(); ++i) {
        if (cached->weight().value.at(i) != 0.0f) {
            cached->weight().value.at(i) = 0.0f;   // kill one live weight
            break;
        }
    }
    cached->weight().grad = Tensor(w.shape());
    cached->bias().grad = Tensor(bias_shape);
    const Tensor y3 = cached->forward(x, true);
    const Tensor dx3 = cached->backward(dy);

    auto fresh2 = make(cached->weight().value);
    EXPECT_TRUE(bitwiseEqual(y3, fresh2->forward(x, true)));
    EXPECT_TRUE(bitwiseEqual(dx3, fresh2->backward(dy)));
    EXPECT_TRUE(bitwiseEqual(cached->weight().grad,
                             fresh2->weight().grad));

    // The pack is keyed by the input geometry too: a different one
    // under the same mask must repack, not reuse.
    auto fresh3 = make(cached->weight().value);
    EXPECT_TRUE(bitwiseEqual(cached->forward(x_other, true),
                             fresh3->forward(x_other, true)));
}

TEST(MaskStableRefresh, LinearReusesTapGeometryAcrossSteps)
{
    // The fc pack is keyed by the batch plane's width: the batch size.
    const int64_t n = 9, i_ext = 26, o_ext = 14;
    Xorshift128Plus rng(97);
    Tensor w(Shape{o_ext, i_ext});
    w.fillGaussian(rng, 0.5f);
    pruneTo(&w, 0.4, 101);
    Tensor x(Shape{n, i_ext});
    x.fillGaussian(rng, 1.0f);
    Tensor dy(Shape{n, o_ext});
    dy.fillGaussian(rng, 1.0f);
    Tensor x_other(Shape{4, i_ext});
    x_other.fillGaussian(rng, 1.0f);
    Tensor b(Shape{o_ext});
    b.fillGaussian(rng, 0.5f);

    expectMaskStableRefresh(
        [&](const Tensor &wv) {
            auto l = std::make_unique<nn::Linear>(i_ext, o_ext, "fc");
            l->setBackend(kernels::KernelBackend::kSparse);
            l->setStoragePrecision(Precision::kFp32);
            l->weight().value = wv;
            l->bias().value = b;
            return l;
        },
        w, x, dy, x_other);
}

TEST(MaskStableRefresh, Conv2dReusesTapGeometryAcrossSteps)
{
    // The conv pack is keyed by the input plane: 7x9 becomes 8x6.
    nn::Conv2dConfig cfg;
    cfg.inChannels = 5;
    cfg.outChannels = 6;
    cfg.kernel = 3;
    cfg.stride = 2;
    cfg.pad = 1;
    Xorshift128Plus rng(103);
    Tensor w(Shape{cfg.outChannels, cfg.inChannels, 3, 3});
    w.fillGaussian(rng, 0.5f);
    pruneTo(&w, 0.4, 107);
    Tensor x(Shape{3, cfg.inChannels, 7, 9});
    x.fillGaussian(rng, 1.0f);
    Tensor dy(Shape{3, cfg.outChannels, 4, 5});
    dy.fillGaussian(rng, 1.0f);
    Tensor x_other(Shape{3, cfg.inChannels, 8, 6});
    x_other.fillGaussian(rng, 1.0f);
    Tensor b(Shape{cfg.outChannels});
    b.fillGaussian(rng, 0.5f);

    expectMaskStableRefresh(
        [&](const Tensor &wv) {
            auto l = std::make_unique<nn::Conv2d>(cfg, "conv");
            l->setBackend(kernels::KernelBackend::kSparse);
            l->setStoragePrecision(Precision::kFp32);
            l->weight().value = wv;
            l->bias().value = b;
            return l;
        },
        w, x, dy, x_other);
}

} // namespace
} // namespace procrustes
