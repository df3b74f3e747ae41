/**
 * @file
 * Tests for the CSB-backed sparse convolution executors, validated
 * against the dense nn::Conv2d reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "arch/model_zoo.h"
#include "brute_force_macs.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "kernels/sparse_microkernels.h"
#include "nn/conv2d.h"
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

/** Exact bit equality — distinguishes +0 from -0, unlike maxAbsDiff. */
bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(std::as_const(a).data(), std::as_const(b).data(),
                       sizeof(float) * a.numel()) == 0;
}

struct ConvCase
{
    int64_t stride;
    int64_t pad;
    double density;
};

class SparseConvAgainstDense : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(SparseConvAgainstDense, ForwardMatchesDenseReference)
{
    const ConvCase &cc = GetParam();
    const Tensor w = maskedFilters(6, 4, 3, cc.density, 11);

    nn::Conv2dConfig cfg;
    cfg.inChannels = 4;
    cfg.outChannels = 6;
    cfg.kernel = 3;
    cfg.stride = cc.stride;
    cfg.pad = cc.pad;
    cfg.bias = false;
    nn::Conv2d dense(cfg, "ref");
    dense.weight().value = w;

    Xorshift128Plus rng(13);
    Tensor x(Shape{2, 4, 9, 9});
    x.fillGaussian(rng, 1.0f);

    const Tensor ref = dense.forward(x, true);
    const CsbTensor csb = CsbTensor::encodeConvFilters(w);
    const Tensor out = sparseConvForward(x, csb, cc.stride, cc.pad);
    ASSERT_EQ(out.shape(), ref.shape());
    EXPECT_LT(maxAbsDiff(out, ref), 1e-4f);
}

TEST_P(SparseConvAgainstDense, BackwardDataMatchesDenseReference)
{
    const ConvCase &cc = GetParam();
    const Tensor w = maskedFilters(5, 3, 3, cc.density, 17);

    nn::Conv2dConfig cfg;
    cfg.inChannels = 3;
    cfg.outChannels = 5;
    cfg.kernel = 3;
    cfg.stride = cc.stride;
    cfg.pad = cc.pad;
    cfg.bias = false;
    nn::Conv2d dense(cfg, "ref");
    dense.weight().value = w;

    Xorshift128Plus rng(19);
    Tensor x(Shape{2, 3, 8, 8});
    x.fillGaussian(rng, 1.0f);
    const Tensor y = dense.forward(x, true);
    Tensor dy(y.shape());
    dy.fillGaussian(rng, 1.0f);
    const Tensor ref_dx = dense.backward(dy);

    const CsbTensor csb = CsbTensor::encodeConvFilters(w);
    const Tensor dx = sparseConvBackwardData(dy, csb, x.shape(),
                                             cc.stride, cc.pad);
    ASSERT_EQ(dx.shape(), ref_dx.shape());
    EXPECT_LT(maxAbsDiff(dx, ref_dx), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SparseConvAgainstDense,
    ::testing::Values(ConvCase{1, 1, 0.15}, ConvCase{1, 1, 0.5},
                      ConvCase{1, 0, 0.25}, ConvCase{2, 1, 0.25},
                      ConvCase{1, 1, 1.0}));

TEST(SparseConv, MacCountScalesWithDensity)
{
    Xorshift128Plus rng(23);
    Tensor x(Shape{1, 4, 8, 8});
    x.fillGaussian(rng, 1.0f);

    const Tensor dense_w = maskedFilters(8, 4, 3, 1.0, 29);
    const Tensor sparse_w = maskedFilters(8, 4, 3, 0.2, 31);
    const auto dense_csb = CsbTensor::encodeConvFilters(dense_w);
    const auto sparse_csb = CsbTensor::encodeConvFilters(sparse_w);

    int64_t dense_macs = -1, sparse_macs = -1;
    sparseConvForward(x, dense_csb, 1, 1, &dense_macs);
    sparseConvForward(x, sparse_csb, 1, 1, &sparse_macs);
    EXPECT_NEAR(static_cast<double>(sparse_macs) /
                    static_cast<double>(dense_macs),
                0.2, 0.02);
}

TEST(SparseConv, EmptyFilterProducesZeroOutput)
{
    Tensor w(Shape{2, 2, 3, 3});   // all zeros
    const CsbTensor csb = CsbTensor::encodeConvFilters(w);
    Xorshift128Plus rng(37);
    Tensor x(Shape{1, 2, 5, 5});
    x.fillGaussian(rng, 1.0f);
    const Tensor y = sparseConvForward(x, csb, 1, 1);
    EXPECT_DOUBLE_EQ(y.sum(), 0.0);
}

TEST(SparseConv, EmptyBatchRunsEveryPhase)
{
    const Tensor w = maskedFilters(4, 3, 3, 0.5, 43);
    const CsbTensor csb = CsbTensor::encodeConvFilters(w);
    const Tensor x(Shape{0, 3, 8, 8});
    int64_t fw = -1, bwd = -1, bww = -1;
    const Tensor y = sparseConvForward(x, csb, 2, 1, &fw);
    const Tensor dy(y.shape());
    const Tensor dx =
        sparseConvBackwardData(dy, csb, x.shape(), 2, 1, &bwd);
    Tensor dw(w.shape());
    dw.fill(1.5f);
    sparseConvBackwardWeights(x, dy, csb, 2, 1, &dw, &bww);
    EXPECT_EQ(y.numel(), 0);
    EXPECT_EQ(dx.shape(), x.shape());
    EXPECT_EQ(fw + bwd + bww, 0);
    EXPECT_DOUBLE_EQ(dw.sum(), 1.5 * static_cast<double>(dw.numel()));
}

TEST(SparseConv, RejectsChannelMismatch)
{
    const Tensor w = maskedFilters(2, 3, 3, 0.5, 41);
    const CsbTensor csb = CsbTensor::encodeConvFilters(w);
    Tensor x(Shape{1, 4, 5, 5});
    EXPECT_DEATH(sparseConvForward(x, csb, 1, 1), "channels");
}

// -------------------------------------- masked-dense dW parity (zoo)

/** Conv geometry as it reaches the executors (channels/kernel/stride). */
struct ZooGeom
{
    int64_t c, k, kernel, stride;

    bool
    operator==(const ZooGeom &o) const
    {
        return c == o.c && k == o.k && kernel == o.kernel &&
               stride == o.stride;
    }
};

/**
 * Every distinct conv filter geometry across the five evaluation
 * networks. Depthwise layers appear as their per-filter view (C = 1):
 * that is the loop nest the executors would run per group.
 */
std::vector<ZooGeom>
zooConvGeometries()
{
    std::vector<ZooGeom> out;
    for (const arch::NetworkModel &m : arch::allModels()) {
        for (const arch::LayerShape &l : m.layers) {
            if (l.type == arch::LayerType::FullyConnected)
                continue;
            const ZooGeom g{l.effectiveC(), l.K, l.R, l.stride};
            if (std::find(out.begin(), out.end(), g) == out.end())
                out.push_back(g);
        }
    }
    return out;
}

TEST(SparseConvBackwardWeights, MatchesMaskedDenseOnZooLayerShapes)
{
    // For each zoo layer shape: the CSB weight-gradient executor must
    // equal the dense reference dW with pruned positions zeroed. The
    // spatial extent is shrunk (the filter geometry, not the image
    // size, is what the kernels branch on) to keep the sweep fast.
    const std::vector<ZooGeom> geoms = zooConvGeometries();
    ASSERT_GT(geoms.size(), 20u);

    uint64_t seed = 200;
    for (const ZooGeom &g : geoms) {
        const int64_t pad = g.kernel / 2;
        const int64_t in_hw = g.kernel + 3;
        const Tensor w = maskedFilters(g.k, g.c, g.kernel, 0.3, ++seed);

        nn::Conv2dConfig cfg;
        cfg.inChannels = g.c;
        cfg.outChannels = g.k;
        cfg.kernel = g.kernel;
        cfg.stride = g.stride;
        cfg.pad = pad;
        cfg.bias = false;
        nn::Conv2d dense(cfg, "ref");
        dense.setBackend(kernels::KernelBackend::kGemm);
        dense.weight().value = w;

        Xorshift128Plus rng(seed * 7);
        Tensor x(Shape{1, g.c, in_hw, in_hw});
        x.fillGaussian(rng, 1.0f);
        const Tensor y = dense.forward(x, true);
        Tensor dy(y.shape());
        dy.fillGaussian(rng, 1.0f);
        dense.backward(dy);

        const CsbTensor csb = CsbTensor::encodeConvFilters(w);
        Tensor dw(w.shape());
        sparseConvBackwardWeights(x, dy, csb, g.stride, pad, &dw);

        const float *pref = dense.weight().grad.data();
        const float *pw = w.data();
        const float *pdw = dw.data();
        for (int64_t i = 0; i < w.numel(); ++i) {
            const float expected = pw[i] == 0.0f ? 0.0f : pref[i];
            ASSERT_NEAR(pdw[i], expected,
                        1e-3f * (1.0f + std::fabs(expected)))
                << "C=" << g.c << " K=" << g.k << " R=" << g.kernel
                << " stride=" << g.stride << " i=" << i;
        }
    }
}

// ------------------------------------- three-phase exact MAC counting

/** Gaussian tensor with about half its entries forced to +0. */
Tensor
halfZeroOperand(const Shape &shape, Xorshift128Plus &rng)
{
    Tensor t(shape);
    t.fillGaussian(rng, 1.0f);
    for (int64_t i = 0; i < t.numel(); ++i) {
        if (rng.next() % 2 == 0)
            t.at(i) = 0.0f;
    }
    return t;
}

TEST(SparseConvMacTallies, AllPhasesMatchBruteForceOnPaddedEdges)
{
    // Edge geometries where the padding halo clips aggressively: big
    // pad relative to the image, stride that skips rows, kernels the
    // size of the input. Every executor reads its taps' windows from
    // the pack's per-element table; each tally must equal the oracle
    // with operand zeros present.
    struct EdgeCase
    {
        int64_t kernel, stride, pad, h, w;
    };
    const EdgeCase cases[] = {
        {3, 1, 1, 4, 4},   // classic same-pad small image
        {5, 2, 2, 7, 6},   // 5x5 stride 2, rectangular
        {3, 3, 1, 8, 5},   // stride 3 skips most rows
        {3, 1, 2, 4, 4},   // pad wider than the kernel overhang
        {1, 1, 0, 5, 5},   // pointwise: no halo at all
        {5, 1, 2, 5, 5},   // kernel as big as the image
    };
    uint64_t seed = 300;
    for (const EdgeCase &ec : cases) {
        const Tensor w = maskedFilters(4, 3, ec.kernel, 0.4, ++seed);
        const CsbTensor csb = CsbTensor::encodeConvFilters(w);
        Xorshift128Plus rng(seed + 1000);
        const Tensor x = halfZeroOperand(Shape{2, 3, ec.h, ec.w}, rng);
        int64_t fw = -1, bwd = -1, bww = -1;
        const Tensor y = sparseConvForward(x, csb, ec.stride, ec.pad, &fw);
        const Tensor dy = halfZeroOperand(y.shape(), rng);
        sparseConvBackwardData(dy, csb, x.shape(), ec.stride, ec.pad, &bwd);
        Tensor dw(w.shape());
        sparseConvBackwardWeights(x, dy, csb, ec.stride, ec.pad, &dw, &bww);

        const PhaseMacs expected =
            bruteForceConvMacs(w, x, dy, ec.stride, ec.pad);
        EXPECT_EQ(fw, expected.forward)
            << "kernel=" << ec.kernel << " stride=" << ec.stride
            << " pad=" << ec.pad;
        EXPECT_EQ(bwd, expected.backwardData) << "kernel=" << ec.kernel;
        EXPECT_EQ(bww, expected.backwardWeight) << "kernel=" << ec.kernel;
        EXPECT_LT(bwd, fw);
        EXPECT_LT(bww, fw);
    }
}

/** Checks kTileEdgeGolden (below) at the current pool and SIMD level. */
void expectTileEdgeGolden(const std::string &where);

TEST(SparseConvBackward, DeterministicUnderThreading)
{
    // Both backward executors partition channels over the pool; the
    // per-element accumulation order and the MAC tallies must not
    // depend on the split. x carries ReLU zeros (about half), the
    // operand the backward-weight tally leaves out. dy comes in two
    // patterns. On a small batch every third element is zero. On
    // planes large enough that the backward-data tally (which sums each
    // output channel's non-zero dy over the batch before it reads the
    // clip windows) splits over the pool, the zeros are structured,
    // since uniform zeros would hide a tally that mixed up samples,
    // channels or window edges: sample 1 is all zero, output channel 2
    // is zero in every sample, and the other non-zeros sit only on the
    // border rows and columns that the clip windows cut.
    const Tensor w = maskedFilters(8, 4, 3, 0.3, 61);
    const CsbTensor csb = CsbTensor::encodeConvFilters(w);
    struct Input {
        int64_t batch, hw;
        bool structured;
    };
    for (const Input in : {Input{2, 9, false}, Input{8, 47, true}}) {
        for (const int64_t stride : {1, 2}) {
            Xorshift128Plus rng(67 + stride);
            Tensor x(Shape{in.batch, 4, in.hw, in.hw});
            x.fillGaussian(rng, 1.0f);
            for (int64_t i = 0; i < x.numel(); ++i)
                x.at(i) = std::max(x.at(i), 0.0f);
            const Tensor y = sparseConvForward(x, csb, stride, 1);
            Tensor dy(y.shape());
            if (!in.structured) {
                dy.fillGaussian(rng, 1.0f);
                for (int64_t i = 0; i < dy.numel(); i += 3)
                    dy.at(i) = 0.0f;
            } else {
                const int64_t pq = y.shape()[2];
                for (int64_t n = 0; n < in.batch; ++n)
                    for (int64_t k = 0; k < y.shape()[1]; ++k)
                        for (int64_t p = 0; p < pq; ++p)
                            for (int64_t q = 0; q < pq; ++q) {
                                const bool border = p == 0 || q == 0 ||
                                                    p == pq - 1 || q == pq - 1;
                                if (n != 1 && k != 2 && border)
                                    dy(n, k, p, q) =
                                        1.0f + std::fabs(rng.nextGaussian());
                            }
            }

            Tensor ref_dx, ref_dw;
            int64_t ref_data_macs = -1, ref_weight_macs = -1;
            for (const int threads : {1, 2, 3, 8}) {
                ThreadPool::resetGlobal(threads);
                int64_t data_macs = -1, weight_macs = -1;
                const Tensor dx = sparseConvBackwardData(
                    dy, csb, x.shape(), stride, 1, &data_macs);
                Tensor dw(w.shape());
                sparseConvBackwardWeights(x, dy, csb, stride, 1, &dw,
                                          &weight_macs);
                if (threads == 1) {
                    ref_dx = dx;
                    ref_dw = dw;
                    ref_data_macs = data_macs;
                    ref_weight_macs = weight_macs;
                    continue;
                }
                EXPECT_TRUE(bitwiseEqual(dx, ref_dx))
                    << "dx hw=" << in.hw << " stride=" << stride
                    << " threads=" << threads;
                EXPECT_TRUE(bitwiseEqual(dw, ref_dw))
                    << "dw hw=" << in.hw << " stride=" << stride
                    << " threads=" << threads;
                EXPECT_EQ(data_macs, ref_data_macs) << threads;
                EXPECT_EQ(weight_macs, ref_weight_macs) << threads;
            }
            // The tallies leave the zeros out: the brute force agrees.
            const PhaseMacs expected = bruteForceConvMacs(w, x, dy, stride, 1);
            EXPECT_GT(expected.backwardData, 0);
            EXPECT_EQ(ref_data_macs, expected.backwardData)
                << "hw=" << in.hw << " stride=" << stride;
            EXPECT_EQ(ref_weight_macs, expected.backwardWeight)
                << "hw=" << in.hw << " stride=" << stride;
        }
    }
    // The tile-edge golden of all three executors at every thread
    // count: a tiling that followed the pool size would move its bits
    // or tallies.
    for (const int threads : {1, 2, 3, 8}) {
        ThreadPool::resetGlobal(threads);
        expectTileEdgeGolden("threads=" + std::to_string(threads));
    }
    ThreadPool::resetGlobal(0);
}

// -------------------------------------------- backward-data golden

/** FNV-1a over 64-bit words: order-sensitive, platform-independent. */
uint64_t
fnv1a(uint64_t h, uint64_t word)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (word >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Uniform values in [-0.5, 0.5) with a fraction forced to +0. Built
    from the integer generator only (no libm), so the inputs are the
    same bits on every host. */
Tensor
goldenTensor(const Shape &shape, uint64_t seed, double keep)
{
    Xorshift128Plus rng(seed);
    Tensor t(shape);
    for (int64_t i = 0; i < t.numel(); ++i) {
        const float v = rng.nextFloat() - 0.5f;
        t.at(i) = rng.nextDouble() < keep ? v : 0.0f;
    }
    return t;
}

struct GoldenCase
{
    int64_t stride, kernel, pad;
    uint64_t dxHash;   //!< FNV-1a of dx bits over all widths/densities
    int64_t macs;      //!< summed bw-data MAC tallies, same cases
};

/**
 * dx bits and MAC tallies of sparseConvBackwardData, pinned across
 * stride x kernel x pad: a narrow width whose output and stride-phase
 * columns end in 1..7-lane tails, and a wide one with more than 32
 * phase columns (more than one register strip), neither a multiple of
 * the stride; weight densities 0.2 / 0.5 / 1.0 against a dy with half
 * its entries zero. The expected values were recorded with the
 * scatter-form executor, so any rewrite must reproduce its addition
 * order exactly, at every SIMD level.
 */
const GoldenCase kGolden[] = {
    {1, 3, 0, 0xad9d4fae3e6f9422ULL, 36539},
    {1, 3, 1, 0x6c09d6e644a9b2bcULL, 53887},
    {1, 3, 2, 0x854427a271ec8474ULL, 63747},
    {1, 5, 0, 0x516e8c69cb80e23cULL, 101798},
    {1, 5, 1, 0xe36e911eaa109d9aULL, 161447},
    {1, 5, 2, 0x8407a35abd21027ULL, 211850},
    {2, 3, 0, 0x88fac84989070b5aULL, 34229},
    {2, 3, 1, 0x78b6f7eaa11c5c7bULL, 35247},
    {2, 3, 2, 0x658de0a2f0eebf8fULL, 40231},
    {2, 5, 0, 0xc1b3b49261af9ccdULL, 77559},
    {2, 5, 1, 0x86888537b6f4dc6ULL, 106617},
    {2, 5, 2, 0x22e60517913802adULL, 127786},
    {3, 3, 0, 0xfd42a50e76e3f30aULL, 31057},
    {3, 3, 1, 0xf0423c665ba54857ULL, 36944},
    {3, 3, 2, 0x639064553dc87798ULL, 31291},
    {3, 5, 0, 0xca6dbe043a988e25ULL, 80715},
    {3, 5, 1, 0x468a12a2870c22ecULL, 98381},
    {3, 5, 2, 0x3e84239bd330d180ULL, 107174},
};

GoldenCase
runGolden(int64_t stride, int64_t kernel, int64_t pad, int index)
{
    const int64_t n = 2, c = 3, k = 5;
    const int64_t h = kernel + 2 * stride + 1;
    const int64_t widths[] = {stride * (9 + index % 7) + 1,
                              stride * 33 + 2};
    GoldenCase got{stride, kernel, pad, 0xcbf29ce484222325ULL, 0};
    uint64_t seed = 7000 + 100 * static_cast<uint64_t>(index);
    for (const int64_t width : widths) {
        for (const double density : {0.2, 0.5, 1.0}) {
            const Tensor w =
                goldenTensor(Shape{k, c, kernel, kernel}, ++seed, density);
            const CsbTensor csb = CsbTensor::encodeConvFilters(w);
            const int64_t p_ext = (h + 2 * pad - kernel) / stride + 1;
            const int64_t q_ext = (width + 2 * pad - kernel) / stride + 1;
            const Tensor dy =
                goldenTensor(Shape{n, k, p_ext, q_ext}, ++seed, 0.5);
            int64_t macs = -1;
            const Tensor dx = sparseConvBackwardData(
                dy, csb, Shape{n, c, h, width}, stride, pad, &macs);
            for (int64_t i = 0; i < dx.numel(); ++i) {
                uint32_t bits;
                std::memcpy(&bits, dx.data() + i, sizeof(bits));
                got.dxHash = fnv1a(got.dxHash, bits);
            }
            got.macs += macs;
        }
    }
    return got;
}

TEST(SparseConvBackwardData, GoldenBitsAndMacsAtEverySimdLevel)
{
    const kernels::SimdLevel saved = kernels::activeSimdLevel();
    std::vector<kernels::SimdLevel> levels = {kernels::SimdLevel::kScalar};
    if (kernels::avx2Supported())
        levels.push_back(kernels::SimdLevel::kAvx2);
    for (const kernels::SimdLevel level : levels) {
        kernels::setSimdLevel(level);
        int index = 0;
        for (const GoldenCase &g : kGolden) {
            const GoldenCase got =
                runGolden(g.stride, g.kernel, g.pad, index++);
            EXPECT_EQ(got.dxHash, g.dxHash)
                << std::hex << "0x" << got.dxHash << std::dec
                << " stride=" << g.stride << " kernel=" << g.kernel
                << " pad=" << g.pad << " simd="
                << kernels::simdLevelName(level);
            EXPECT_EQ(got.macs, g.macs)
                << "stride=" << g.stride << " kernel=" << g.kernel
                << " pad=" << g.pad << " simd="
                << kernels::simdLevelName(level);
        }
    }
    kernels::setSimdLevel(saved);
}

// -------------------------------------------------- forward golden

struct ForwardGoldenCase
{
    int64_t stride, kernel, pad;
    uint64_t yHash;   //!< FNV-1a of y bits over all batches/widths
    int64_t macs;     //!< summed forward MAC tallies, same cases
};

/**
 * y bits and MAC tallies of sparseConvForward, pinned across stride x
 * kernel x pad at batches 1, 3 and 32 (weight densities 1.0, 0.5 and
 * 0.2): a narrow width whose output rows end in 1..7-lane tails and a
 * wide one with more than 32 output columns (more than one register
 * strip). 20 input channels split into two L1 channel chunks on the
 * narrow planes of the larger kernels and strides, so the chunk order
 * is pinned too. Output channel 2 is all-pruned; its planes must be
 * exact +0 even when y lands in a freed allocation that held NaNs. The expected values were recorded
 * with the executor that partitioned over output channels, so any
 * rewrite must reproduce its addition order exactly, at every SIMD
 * level.
 */
const ForwardGoldenCase kForwardGolden[] = {
    {1, 1, 0, 0xfe04f99d2d2ae3cULL, 116208},
    {1, 1, 1, 0x82461c7b29555678ULL, 133992},
    {1, 1, 2, 0xc1ea1630682f65c0ULL, 112968},
    {1, 3, 0, 0x26d324b28c71e483ULL, 999148},
    {1, 3, 1, 0x858439571848b9f9ULL, 1518113},
    {1, 3, 2, 0x5c050374fadfcd6bULL, 1726380},
    {1, 5, 0, 0x3c8ce8f9ee5d33deULL, 2804548},
    {1, 5, 1, 0x488bf84c8cce0bcdULL, 4488878},
    {1, 5, 2, 0x9635f7f3938bf22dULL, 5501698},
    {2, 1, 0, 0x1f48e91e827359f4ULL, 88236},
    {2, 1, 1, 0x35f24e04fa764c58ULL, 90621},
    {2, 1, 2, 0x2f1352113683c055ULL, 68325},
    {2, 3, 0, 0x3fac889958084193ULL, 755082},
    {2, 3, 1, 0xf279982f76c9ae25ULL, 1064007},
    {2, 3, 2, 0x67ab2dbcfb67792dULL, 1088372},
    {2, 5, 0, 0x1ff70768d7107049ULL, 1982052},
    {2, 5, 1, 0xc30bd92d10648e8aULL, 2797536},
    {2, 5, 2, 0xaf36e21e1a2f6f6aULL, 3328727},
    {3, 1, 0, 0xaa6d82aa704b3309ULL, 81861},
    {3, 1, 1, 0xba9149af123e8ce0ULL, 59386},
    {3, 1, 2, 0x54d0edab7a30bd85ULL, 89391},
    {3, 3, 0, 0x97f82c9fdae4e8bcULL, 846030},
    {3, 3, 1, 0x40b8f030a7c7b698ULL, 816627},
    {3, 3, 2, 0x17e86d96d20b69c4ULL, 920109},
    {3, 5, 0, 0xec50c90b82c8c7a6ULL, 2248848},
    {3, 5, 1, 0x515ee6164bd66e10ULL, 2495357},
    {3, 5, 2, 0xb88e2c47d0f1c827ULL, 2586870},
};

ForwardGoldenCase
runForwardGolden(const ForwardGoldenCase &g, int index)
{
    const int64_t c = 20, k = 5, pruned = 2;
    const int64_t stride = g.stride, kernel = g.kernel, pad = g.pad;
    const int64_t h = kernel + 2 * stride + 1;
    const int64_t widths[] = {stride * (3 + index % 5) + kernel,
                              stride * 33 + kernel + index % stride};
    ForwardGoldenCase got{stride, kernel, pad, 0xcbf29ce484222325ULL, 0};
    uint64_t seed = 11000 + 100 * static_cast<uint64_t>(index);
    struct Batch
    {
        int64_t n;
        double density;
    };
    for (const Batch b : {Batch{1, 1.0}, Batch{3, 0.5}, Batch{32, 0.2}}) {
        for (const int64_t width : widths) {
            Tensor w = goldenTensor(Shape{k, c, kernel, kernel}, ++seed,
                                    b.density);
            for (int64_t i = 0; i < c * kernel * kernel; ++i)
                w.at(pruned * c * kernel * kernel + i) = 0.0f;
            const CsbTensor csb = CsbTensor::encodeConvFilters(w);
            const Tensor x =
                goldenTensor(Shape{b.n, c, h, width}, ++seed, 0.5);
            const int64_t p_ext = (h + 2 * pad - kernel) / stride + 1;
            const int64_t q_ext = (width + 2 * pad - kernel) / stride + 1;
            {
                // Leave a freed, dirtied block of y's size for the
                // executor's output allocation to reuse.
                Tensor dirty =
                    Tensor::uninitialized(Shape{b.n, k, p_ext, q_ext});
                const uint32_t nan_bits = 0x7fc0beefu;
                for (int64_t i = 0; i < dirty.numel(); ++i)
                    std::memcpy(dirty.data() + i, &nan_bits, sizeof(float));
            }
            int64_t macs = -1;
            const Tensor y = sparseConvForward(x, csb, stride, pad, &macs);
            EXPECT_EQ(y.shape(), Shape({b.n, k, p_ext, q_ext}));
            for (int64_t i = 0; i < y.numel(); ++i) {
                uint32_t bits;
                std::memcpy(&bits, y.data() + i, sizeof(bits));
                got.yHash = fnv1a(got.yHash, bits);
                if ((i / (p_ext * q_ext)) % k == pruned && bits != 0u) {
                    ADD_FAILURE() << "pruned plane element " << i
                                  << " has bits 0x" << std::hex << bits;
                    break;
                }
            }
            got.macs += macs;
        }
    }
    return got;
}

TEST(SparseConvForward, GoldenBitsAndMacsAtEverySimdLevel)
{
    const kernels::SimdLevel saved = kernels::activeSimdLevel();
    std::vector<kernels::SimdLevel> levels = {kernels::SimdLevel::kScalar};
    if (kernels::avx2Supported())
        levels.push_back(kernels::SimdLevel::kAvx2);
    for (const kernels::SimdLevel level : levels) {
        kernels::setSimdLevel(level);
        int index = 0;
        for (const ForwardGoldenCase &g : kForwardGolden) {
            const ForwardGoldenCase got = runForwardGolden(g, index++);
            EXPECT_EQ(got.yHash, g.yHash)
                << std::hex << "0x" << got.yHash << std::dec
                << " stride=" << g.stride << " kernel=" << g.kernel
                << " pad=" << g.pad << " simd="
                << kernels::simdLevelName(level);
            EXPECT_EQ(got.macs, g.macs)
                << "stride=" << g.stride << " kernel=" << g.kernel
                << " pad=" << g.pad << " simd="
                << kernels::simdLevelName(level);
        }
    }
    kernels::setSimdLevel(saved);
}

TEST(SparseConvForward, DeterministicUnderThreading)
{
    // Batch 1 leaves only output-channel blocks to split over the pool,
    // batch 32 enough samples for every thread; 3 sits between. y bits
    // and the MAC tally must not depend on the pool size.
    const Tensor w = maskedFilters(24, 6, 3, 0.3, 71);
    const CsbTensor csb = CsbTensor::encodeConvFilters(w);
    for (const int64_t n : {1, 3, 32}) {
        for (const int64_t stride : {1, 2}) {
            Xorshift128Plus rng(73 + n + stride);
            Tensor x(Shape{n, 6, 13, 13});
            x.fillGaussian(rng, 1.0f);
            Tensor ref_y;
            int64_t ref_macs = -1;
            for (const int threads : {1, 2, 3, 8}) {
                ThreadPool::resetGlobal(threads);
                int64_t macs = -1;
                const Tensor y = sparseConvForward(x, csb, stride, 1, &macs);
                if (threads == 1) {
                    ref_y = y;
                    ref_macs = macs;
                    continue;
                }
                EXPECT_TRUE(bitwiseEqual(y, ref_y))
                    << "n=" << n << " stride=" << stride
                    << " threads=" << threads;
                EXPECT_EQ(macs, ref_macs)
                    << "n=" << n << " threads=" << threads;
            }
        }
    }
    ThreadPool::resetGlobal(0);
}

// ------------------------------------------ backward-weight golden

struct WeightGoldenCase
{
    int64_t stride, kernel, pad;
    int64_t h, w;      //!< input extent; w == 0: the two sweep widths
    uint64_t dwHash;   //!< FNV-1a of dW bits over all widths/densities
    int64_t macs;      //!< summed bw-weight MAC tallies, same cases
};

/**
 * dW bits and MAC tallies of sparseConvBackwardWeights. The sweep rows
 * cover stride x kernel x pad at two widths per row: one whose output
 * rows are tail-only (q_ext < 8) and one whose q_ext is not a multiple
 * of 8. The edge rows are the padded-edge geometries of
 * AllPhasesMatchBruteForceOnPaddedEdges plus two whose outer kernel
 * rows and columns are clipped to nothing. Every case runs densities
 * 0.3 and 1.0 over 10 input channels (so up to 10 live taps of one
 * output channel share a kernel element), against an x with half its
 * entries zero and a dW pre-filled with non-zero values and -0 at
 * every fifth slot, live ones included. The expected values were
 * recorded with the per-tap gather executor, so any rewrite must
 * reproduce its addition order exactly, at every SIMD level.
 */
const WeightGoldenCase kWeightGolden[] = {
    {1, 1, 0, 0, 0, 0x75059ef46bad51dULL, 4224},
    {1, 1, 1, 0, 0, 0xbc9e5ccd42a73d6bULL, 4238},
    {1, 1, 2, 0, 0, 0x1b26cd00f4cf615ULL, 3788},
    {1, 3, 0, 0, 0, 0xf2f2013ea58a0f27ULL, 54311},
    {1, 3, 1, 0, 0, 0x177570c102a47ca9ULL, 73898},
    {1, 3, 2, 0, 0, 0xc9b510eac2e14bb5ULL, 68883},
    {1, 5, 0, 0, 0, 0x7a6e4118c55a689bULL, 153339},
    {1, 5, 1, 0, 0, 0x9018f319fff6d573ULL, 174047},
    {1, 5, 2, 0, 0, 0xa73e05fbe09c1875ULL, 216171},
    {2, 1, 0, 0, 0, 0x1a7e508c0f47781fULL, 4580},
    {2, 1, 1, 0, 0, 0x21c11d2de568d120ULL, 3988},
    {2, 1, 2, 0, 0, 0x5d92b46113988585ULL, 3663},
    {2, 3, 0, 0, 0, 0x31261ad79c5197cfULL, 41012},
    {2, 3, 1, 0, 0, 0x2cb75c02cd55d936ULL, 54290},
    {2, 3, 2, 0, 0, 0x172168fe32e346a1ULL, 43687},
    {2, 5, 0, 0, 0, 0xc2abce362663e16cULL, 93142},
    {2, 5, 1, 0, 0, 0x12ec369b5805ad26ULL, 125281},
    {2, 5, 2, 0, 0, 0xff7932e796423d79ULL, 154732},
    {3, 1, 0, 0, 0, 0x6e1851034cc5d567ULL, 4884},
    {3, 1, 1, 0, 0, 0x1038a0d63c6ee845ULL, 2975},
    {3, 1, 2, 0, 0, 0xfc8436e9f302285ULL, 4081},
    {3, 3, 0, 0, 0, 0xba817a459d20d4eULL, 33363},
    {3, 3, 1, 0, 0, 0x4119f2c552af5d7fULL, 40616},
    {3, 3, 2, 0, 0, 0xb6b3ff904a56e870ULL, 42089},
    {3, 5, 0, 0, 0, 0x6fe761d657a0ef97ULL, 119502},
    {3, 5, 1, 0, 0, 0xab804d384577472dULL, 123408},
    {3, 5, 2, 0, 0, 0x734174e591b8c990ULL, 133805},
    // Padded edges.
    {1, 3, 1, 4, 4, 0x9dfa24fe37ea1defULL, 5490},
    {2, 5, 2, 7, 6, 0x256ddc016e148dULL, 11150},
    {3, 3, 1, 8, 5, 0xe1efa6303f0fba7fULL, 2247},
    {1, 3, 2, 4, 4, 0x6ea2d818b5db027cULL, 8268},
    {1, 1, 0, 5, 5, 0x380c8753bf29914aULL, 1402},
    {1, 5, 2, 5, 5, 0x3711a669b20d57b0ULL, 21708},
    // Kernel rows/columns 0 and 1 never reach the input.
    {3, 5, 2, 3, 3, 0xf0cf36ea0a298697ULL, 548},
    {3, 5, 2, 4, 11, 0x7e5ecbf43ac4d230ULL, 5970},
};

WeightGoldenCase
runWeightGolden(const WeightGoldenCase &g, int index)
{
    const int64_t n = 3, c = 10, k = 3;
    const int64_t stride = g.stride, kernel = g.kernel, pad = g.pad;
    const int64_t h = g.w ? g.h : kernel + 2 * stride + 1;
    // Sweep widths: q_ext in 3..7, then in 17..23.
    std::vector<int64_t> widths;
    if (g.w) {
        widths.push_back(g.w);
    } else {
        for (const int64_t q : {3 + index % 5, 17 + index % 7}) {
            int64_t width = (q - 1) * stride + kernel - 2 * pad +
                            index % stride;
            while (width < 1)
                width += stride;
            widths.push_back(width);
        }
    }
    WeightGoldenCase got = g;
    got.dwHash = 0xcbf29ce484222325ULL;
    got.macs = 0;
    uint64_t seed = 9000 + 100 * static_cast<uint64_t>(index);
    for (const int64_t width : widths) {
        for (const double density : {0.3, 1.0}) {
            const Shape ws{k, c, kernel, kernel};
            const Tensor w = goldenTensor(ws, ++seed, density);
            const CsbTensor csb = CsbTensor::encodeConvFilters(w);
            const int64_t p_ext = (h + 2 * pad - kernel) / stride + 1;
            const int64_t q_ext = (width + 2 * pad - kernel) / stride + 1;
            const Tensor x =
                goldenTensor(Shape{n, c, h, width}, ++seed, 0.5);
            const Tensor dy =
                goldenTensor(Shape{n, k, p_ext, q_ext}, ++seed, 1.0);
            Tensor dw = goldenTensor(ws, ++seed, 1.0);
            for (int64_t i = 0; i < dw.numel(); i += 5)
                dw.at(i) = -0.0f;
            int64_t macs = -1;
            sparseConvBackwardWeights(x, dy, csb, stride, pad, &dw, &macs);
            for (int64_t i = 0; i < dw.numel(); ++i) {
                uint32_t bits;
                std::memcpy(&bits, dw.data() + i, sizeof(bits));
                got.dwHash = fnv1a(got.dwHash, bits);
            }
            got.macs += macs;
        }
    }
    return got;
}

TEST(SparseConvBackwardWeights, GoldenBitsAndMacsAtEverySimdLevel)
{
    const kernels::SimdLevel saved = kernels::activeSimdLevel();
    std::vector<kernels::SimdLevel> levels = {kernels::SimdLevel::kScalar};
    if (kernels::avx2Supported())
        levels.push_back(kernels::SimdLevel::kAvx2);
    for (const kernels::SimdLevel level : levels) {
        kernels::setSimdLevel(level);
        int index = 0;
        for (const WeightGoldenCase &g : kWeightGolden) {
            const WeightGoldenCase got = runWeightGolden(g, index++);
            EXPECT_EQ(got.dwHash, g.dwHash)
                << std::hex << "0x" << got.dwHash << std::dec
                << " stride=" << g.stride << " kernel=" << g.kernel
                << " pad=" << g.pad << " h=" << g.h << " w=" << g.w
                << " simd=" << kernels::simdLevelName(level);
            EXPECT_EQ(got.macs, g.macs)
                << "stride=" << g.stride << " kernel=" << g.kernel
                << " pad=" << g.pad << " h=" << g.h << " w=" << g.w
                << " simd=" << kernels::simdLevelName(level);
        }
    }
    kernels::setSimdLevel(saved);
}

// ------------------------------------------------------ tile edges

struct TileEdgeCase
{
    int64_t stride, n;
    uint64_t yHash, dxHash, dwHash;   //!< FNV-1a of y / dx / dW bits over
                                      //!< both densities
    int64_t fwMacs, bdMacs, bwMacs;   //!< summed MAC tallies, same cases
};

/**
 * y, dx and dW bits and the three MAC tallies of the sparse conv
 * executors on K = 19 output and C = 37 input channels, counts no
 * plausible channel block divides, so a tiling of either axis ends in a
 * ragged block. The rows cover strides 1..3 at batches 1, 3, 8 and 32,
 * with 3x3 kernels, pad 1, 4 output rows and ragged output widths (11,
 * 9, 13). Each row runs densities 0.2 and 1.0: y from an x with half
 * its entries zero, dx from a dense dy, and dW from both into a dW
 * pre-filled with non-zero values and -0 at every fifth slot. The dW
 * values were recorded with one task per output channel streaming all
 * input channels, the y and dx values with the forward's (sample x
 * output-channel block) tiles and backward-data's (sample, input
 * channel) pairs.
 */
const TileEdgeCase kTileEdgeGolden[] = {
    {1, 1, 0x85eb0401b5aaee10ULL, 0x70370a6c2720965aULL,
     0xf198cd041856adaULL, 262454, 262454, 131260},
    {1, 3, 0x760744eb9ca6969bULL, 0xf7ef0bfd23b124c5ULL,
     0xb1d46bb86903d432ULL, 781782, 781782, 394596},
    {1, 8, 0x7f870b885094f318ULL, 0x20d01cfec86271eaULL,
     0x217ec229d81cfd26ULL, 2090968, 2090968, 1042140},
    {1, 32, 0x2a6b4839c14e68caULL, 0x7b2f59e5d5f18a65ULL,
     0xcc0fee1a61626b7fULL, 8426816, 8426816, 4210484},
    {2, 1, 0x9ded111d5bf1899aULL, 0xdfc4e9aaf93cc1f7ULL,
     0x8cd644a841eb0a56ULL, 218937, 218937, 107575},
    {2, 3, 0x1bbc0455d8e9f58fULL, 0x1c6f3553f77927e0ULL,
     0xaecc47fc90a860bbULL, 659760, 659760, 327073},
    {2, 8, 0x945f08b61b163a56ULL, 0xb04b2db1240dd5eULL,
     0x9d6beb6276f39af6ULL, 1762088, 1762088, 879167},
    {2, 32, 0x2684291e05bef8c2ULL, 0x56b3aa08b1f20f55ULL,
     0xf6efa9d11c23b807ULL, 7049632, 7049632, 3517253},
    {3, 1, 0xe02eb6f05d531912ULL, 0x31e7b7396f11b1dfULL,
     0x7c6a976466bed872ULL, 320727, 320727, 160199},
    {3, 3, 0x47658898f5320c0ULL, 0xe37b8a2cd8f6cf8aULL,
     0x828b4d848ef93e7dULL, 954291, 954291, 477848},
    {3, 8, 0x6df860f8681e7222ULL, 0x4c6a6933422bc6dULL,
     0x4b2878a902574df7ULL, 2555824, 2555824, 1277703},
    {3, 32, 0xd6ad35076bf63a57ULL, 0x875bc1269a0ff85ULL,
     0xe92f6aab343512f6ULL, 10270496, 10270496, 5136294},
};

/** Fold t's bit patterns into h. */
uint64_t
hashBits(uint64_t h, const Tensor &t)
{
    for (int64_t i = 0; i < t.numel(); ++i) {
        uint32_t bits;
        std::memcpy(&bits, t.data() + i, sizeof(bits));
        h = fnv1a(h, bits);
    }
    return h;
}

TileEdgeCase
runTileEdgeGolden(int64_t stride, int64_t n)
{
    const int64_t k = 19, c = 37, kernel = 3, pad = 1;
    const int64_t h = 3 * stride + 1;
    const int64_t q_ext = stride == 1 ? 11 : stride == 2 ? 9 : 13;
    const int64_t width = (q_ext - 1) * stride + kernel - 2 * pad + stride - 1;
    const int64_t p_ext = (h + 2 * pad - kernel) / stride + 1;
    const uint64_t basis = 0xcbf29ce484222325ULL;
    TileEdgeCase got{stride, n, basis, basis, basis, 0, 0, 0};
    uint64_t seed = 20000 + 100 * static_cast<uint64_t>(stride) +
                    static_cast<uint64_t>(n);
    for (const double density : {0.2, 1.0}) {
        const Shape ws{k, c, kernel, kernel};
        const CsbTensor csb =
            CsbTensor::encodeConvFilters(goldenTensor(ws, ++seed, density));
        const Tensor x = goldenTensor(Shape{n, c, h, width}, ++seed, 0.5);
        const Tensor dy =
            goldenTensor(Shape{n, k, p_ext, q_ext}, ++seed, 1.0);
        Tensor dw = goldenTensor(ws, ++seed, 1.0);
        for (int64_t i = 0; i < dw.numel(); i += 5)
            dw.at(i) = -0.0f;
        int64_t macs[3] = {-1, -1, -1};
        got.yHash = hashBits(
            got.yHash, sparseConvForward(x, csb, stride, pad, &macs[0]));
        got.dxHash = hashBits(got.dxHash,
                              sparseConvBackwardData(dy, csb, x.shape(),
                                                     stride, pad, &macs[1]));
        sparseConvBackwardWeights(x, dy, csb, stride, pad, &dw, &macs[2]);
        got.dwHash = hashBits(got.dwHash, dw);
        got.fwMacs += macs[0];
        got.bdMacs += macs[1];
        got.bwMacs += macs[2];
    }
    return got;
}

void
expectTileEdgeGolden(const std::string &where)
{
    for (const TileEdgeCase &g : kTileEdgeGolden) {
        const TileEdgeCase got = runTileEdgeGolden(g.stride, g.n);
        const std::string row = "stride=" + std::to_string(g.stride) +
                                " n=" + std::to_string(g.n) + " " + where;
        EXPECT_EQ(got.yHash, g.yHash)
            << std::hex << "y 0x" << got.yHash << std::dec << " " << row;
        EXPECT_EQ(got.dxHash, g.dxHash)
            << std::hex << "dx 0x" << got.dxHash << std::dec << " " << row;
        EXPECT_EQ(got.dwHash, g.dwHash)
            << std::hex << "dw 0x" << got.dwHash << std::dec << " " << row;
        EXPECT_EQ(got.fwMacs, g.fwMacs) << "fw " << row;
        EXPECT_EQ(got.bdMacs, g.bdMacs) << "bd " << row;
        EXPECT_EQ(got.bwMacs, g.bwMacs) << "bw " << row;
    }
}

TEST(SparseConvBackwardWeights, TileEdgeGoldenAtEverySimdLevel)
{
    const kernels::SimdLevel saved = kernels::activeSimdLevel();
    std::vector<kernels::SimdLevel> levels = {kernels::SimdLevel::kScalar};
    if (kernels::avx2Supported())
        levels.push_back(kernels::SimdLevel::kAvx2);
    for (const kernels::SimdLevel level : levels) {
        kernels::setSimdLevel(level);
        expectTileEdgeGolden(std::string("simd=") +
                             kernels::simdLevelName(level));
    }
    kernels::setSimdLevel(saved);
}

// ------------------------------------------------------ tap pack reuse

/**
 * A tap pack depends on the mask and the geometry only: it holds no
 * batch size and no weight value. Per forward-golden geometry one pack,
 * built from a first encode, is passed to all three executors at
 * batches 1, 3 and 32, for that encode and for a second encode of the
 * same mask with other values. y, dx, dW and the three MAC tallies must
 * equal, bit for bit, the calls that build their own pack. The width
 * gives q_ext = 11..15: more than one vector, and a masked tail.
 */
TEST(SparseConvPack, OnePackServesEveryBatchAndEncode)
{
    const kernels::SimdLevel saved = kernels::activeSimdLevel();
    std::vector<kernels::SimdLevel> levels = {kernels::SimdLevel::kScalar};
    if (kernels::avx2Supported())
        levels.push_back(kernels::SimdLevel::kAvx2);
    const int64_t c = 20, k = 5;
    for (const kernels::SimdLevel level : levels) {
        kernels::setSimdLevel(level);
        uint64_t seed = 13000;
        for (const ForwardGoldenCase &g : kForwardGolden) {
            const int64_t stride = g.stride, kernel = g.kernel, pad = g.pad;
            const int64_t h = kernel + 2 * stride + 1;
            const int64_t width = stride * 10 + kernel;
            const int64_t p_ext = (h + 2 * pad - kernel) / stride + 1;
            const int64_t q_ext = (width + 2 * pad - kernel) / stride + 1;
            const Shape ws{k, c, kernel, kernel};
            const Tensor w1 = goldenTensor(ws, ++seed, 0.4);
            Tensor w2 = goldenTensor(ws, ++seed, 1.0);
            for (int64_t i = 0; i < w2.numel(); ++i) {
                if (w1.at(i) == 0.0f)
                    w2.at(i) = 0.0f;
                else if (w2.at(i) == 0.0f)
                    w2.at(i) = 0.25f;
            }
            const CsbTensor csb1 = CsbTensor::encodeConvFilters(w1);
            const CsbTensor csb2 = CsbTensor::encodeConvFilters(w2);
            ASSERT_TRUE(csb2.sameMaskAs(csb1));
            const auto pack = packConvTaps(csb1, h, width, stride, pad);
            for (const CsbTensor *csb : {&csb1, &csb2}) {
                for (const int64_t n : {1, 3, 32}) {
                    const Tensor x =
                        goldenTensor(Shape{n, c, h, width}, ++seed, 0.5);
                    const Tensor dy = goldenTensor(
                        Shape{n, k, p_ext, q_ext}, ++seed, 0.5);
                    Tensor dw_ref = goldenTensor(ws, ++seed, 1.0);
                    for (int64_t i = 0; i < dw_ref.numel(); i += 5)
                        dw_ref.at(i) = -0.0f;
                    Tensor dw = dw_ref;   // copy-on-write: detaches on write
                    int64_t ref_macs[3] = {-1, -1, -1};
                    int64_t macs[3] = {-2, -2, -2};
                    const Tensor y_ref =
                        sparseConvForward(x, *csb, stride, pad, &ref_macs[0]);
                    const Tensor y = sparseConvForward(x, *csb, stride, pad,
                                                       &macs[0], &pack);
                    const Tensor dx_ref = sparseConvBackwardData(
                        dy, *csb, x.shape(), stride, pad, &ref_macs[1]);
                    const Tensor dx = sparseConvBackwardData(
                        dy, *csb, x.shape(), stride, pad, &macs[1], &pack);
                    sparseConvBackwardWeights(x, dy, *csb, stride, pad,
                                              &dw_ref, &ref_macs[2]);
                    sparseConvBackwardWeights(x, dy, *csb, stride, pad, &dw,
                                              &macs[2], &pack);
                    const std::string where =
                        "stride=" + std::to_string(stride) +
                        " kernel=" + std::to_string(kernel) +
                        " pad=" + std::to_string(pad) +
                        " n=" + std::to_string(n) +
                        " encode=" + (csb == &csb1 ? "1" : "2") +
                        " simd=" + kernels::simdLevelName(level);
                    EXPECT_TRUE(bitwiseEqual(y, y_ref)) << where;
                    EXPECT_TRUE(bitwiseEqual(dx, dx_ref)) << where;
                    EXPECT_TRUE(bitwiseEqual(dw, dw_ref)) << where;
                    for (int phase = 0; phase < 3; ++phase)
                        EXPECT_EQ(macs[phase], ref_macs[phase])
                            << where << " phase=" << phase;
                }
            }
        }
    }
    kernels::setSimdLevel(saved);
}

TEST(SparseConvPack, RejectsAPackOfAnotherMask)
{
    // Same filter shape, so the same block count, but more live taps:
    // the pack's value indices would run past w's values.
    const CsbTensor more =
        CsbTensor::encodeConvFilters(maskedFilters(4, 3, 3, 0.8, 47));
    const CsbTensor fewer =
        CsbTensor::encodeConvFilters(maskedFilters(4, 3, 3, 0.3, 53));
    ASSERT_EQ(more.numBlocks(), fewer.numBlocks());
    ASSERT_GT(more.nnz(), fewer.nnz());
    const ConvTapPack pack = packConvTaps(more, 6, 6, 1, 1);
    const Tensor x(Shape{2, 3, 6, 6});
    const Tensor dy(Shape{2, 4, 6, 6});
    Tensor dw(Shape{4, 3, 3, 3});
    EXPECT_DEATH(sparseConvForward(x, fewer, 1, 1, nullptr, &pack),
                 "live-tap count");
    EXPECT_DEATH(sparseConvBackwardData(dy, fewer, x.shape(), 1, 1, nullptr,
                                        &pack),
                 "live-tap count");
    EXPECT_DEATH(sparseConvBackwardWeights(x, dy, fewer, 1, 1, &dw, nullptr,
                                           &pack),
                 "live-tap count");
}

} // namespace
} // namespace sparse
} // namespace procrustes
