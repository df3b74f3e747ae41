/**
 * @file
 * Unit tests for the NN layers' forward semantics, and for the kSparse
 * weight layers against the CSB executors they dispatch to.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "kernels/gemm.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/pooling.h"
#include "sparse/mask.h"
#include "sparse/sparse_conv.h"

namespace procrustes {
namespace nn {
namespace {

TEST(Conv2d, OutputShape)
{
    Conv2dConfig cfg;
    cfg.inChannels = 3;
    cfg.outChannels = 8;
    cfg.kernel = 3;
    cfg.pad = 1;
    Conv2d conv(cfg, "c");
    Tensor x(Shape{2, 3, 8, 8});
    const Tensor y = conv.forward(x, true);
    EXPECT_EQ(y.shape(), Shape({2, 8, 8, 8}));
}

TEST(Conv2d, StrideShrinksOutput)
{
    Conv2dConfig cfg;
    cfg.inChannels = 1;
    cfg.outChannels = 1;
    cfg.kernel = 3;
    cfg.pad = 1;
    cfg.stride = 2;
    Conv2d conv(cfg, "c");
    Tensor x(Shape{1, 1, 8, 8});
    EXPECT_EQ(conv.forward(x, true).shape(), Shape({1, 1, 4, 4}));
}

TEST(Conv2d, IdentityKernelPassesThrough)
{
    Conv2dConfig cfg;
    cfg.inChannels = 1;
    cfg.outChannels = 1;
    cfg.kernel = 3;
    cfg.pad = 1;
    cfg.bias = false;
    Conv2d conv(cfg, "c");
    conv.weight().value(0, 0, 1, 1) = 1.0f;   // centre tap only

    Xorshift128Plus rng(5);
    Tensor x(Shape{1, 1, 5, 5});
    x.fillGaussian(rng, 1.0f);
    const Tensor y = conv.forward(x, true);
    EXPECT_LT(maxAbsDiff(x, y), 1e-6f);
}

TEST(Conv2d, KnownValueConvolution)
{
    // 2x2 input, 2x2 kernel of ones, no padding -> single output
    // equal to the input sum.
    Conv2dConfig cfg;
    cfg.inChannels = 1;
    cfg.outChannels = 1;
    cfg.kernel = 2;
    cfg.pad = 0;
    cfg.bias = false;
    Conv2d conv(cfg, "c");
    conv.weight().value.fill(1.0f);
    Tensor x(Shape{1, 1, 2, 2});
    x(0, 0, 0, 0) = 1.0f;
    x(0, 0, 0, 1) = 2.0f;
    x(0, 0, 1, 0) = 3.0f;
    x(0, 0, 1, 1) = 4.0f;
    const Tensor y = conv.forward(x, true);
    EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
    EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 10.0f);
}

TEST(Conv2d, BiasAddsPerChannel)
{
    Conv2dConfig cfg;
    cfg.inChannels = 1;
    cfg.outChannels = 2;
    cfg.kernel = 1;
    cfg.pad = 0;
    Conv2d conv(cfg, "c");
    conv.bias().value.at(0) = 1.5f;
    conv.bias().value.at(1) = -2.0f;
    Tensor x(Shape{1, 1, 2, 2});
    const Tensor y = conv.forward(x, true);
    EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 1.5f);
    EXPECT_FLOAT_EQ(y(0, 1, 0, 0), -2.0f);
}

TEST(Linear, MatVecSemantics)
{
    Linear fc(3, 2, "fc");
    // W = [[1,2,3],[4,5,6]], b = [0.5, -0.5]
    for (int o = 0; o < 2; ++o) {
        for (int i = 0; i < 3; ++i)
            fc.weight().value(o, i) = static_cast<float>(o * 3 + i + 1);
    }
    fc.bias().value.at(0) = 0.5f;
    fc.bias().value.at(1) = -0.5f;
    Tensor x(Shape{1, 3});
    x(0, 0) = 1.0f;
    x(0, 1) = 1.0f;
    x(0, 2) = 1.0f;
    const Tensor y = fc.forward(x, true);
    EXPECT_FLOAT_EQ(y(0, 0), 6.5f);
    EXPECT_FLOAT_EQ(y(0, 1), 14.5f);
}

TEST(ReLU, ClampsAndTracksSparsity)
{
    ReLU relu("r");
    Tensor x(Shape{1, 1, 2, 2});
    x(0, 0, 0, 0) = -1.0f;
    x(0, 0, 0, 1) = 2.0f;
    x(0, 0, 1, 0) = 0.0f;
    x(0, 0, 1, 1) = -3.0f;
    const Tensor y = relu.forward(x, true);
    EXPECT_FLOAT_EQ(y(0, 0, 0, 1), 2.0f);
    EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 0.0f);
    EXPECT_DOUBLE_EQ(relu.lastOutputSparsity(), 0.75);
}

TEST(ReLU, BackwardMasksGradient)
{
    ReLU relu("r");
    Tensor x(Shape{1, 1, 1, 2});
    x(0, 0, 0, 0) = -1.0f;
    x(0, 0, 0, 1) = 1.0f;
    relu.forward(x, true);
    Tensor dy(Shape{1, 1, 1, 2});
    dy.fill(3.0f);
    const Tensor dx = relu.backward(dy);
    EXPECT_FLOAT_EQ(dx(0, 0, 0, 0), 0.0f);
    EXPECT_FLOAT_EQ(dx(0, 0, 0, 1), 3.0f);
}

TEST(BatchNorm, NormalizesTrainingBatch)
{
    BatchNorm2d bn(2, "bn");
    Xorshift128Plus rng(9);
    Tensor x(Shape{8, 2, 4, 4});
    x.fillGaussian(rng, 3.0f);
    const Tensor y = bn.forward(x, /*training=*/true);

    // Per-channel mean ~0 and variance ~1 after normalization.
    for (int c = 0; c < 2; ++c) {
        double sum = 0.0;
        double sq = 0.0;
        int64_t count = 0;
        for (int n = 0; n < 8; ++n) {
            for (int h = 0; h < 4; ++h) {
                for (int w = 0; w < 4; ++w) {
                    const double v = y(n, c, h, w);
                    sum += v;
                    sq += v * v;
                    ++count;
                }
            }
        }
        EXPECT_NEAR(sum / count, 0.0, 1e-4);
        EXPECT_NEAR(sq / count, 1.0, 1e-2);
    }
}

TEST(BatchNorm, EvalUsesRunningStats)
{
    BatchNorm2d bn(1, "bn");
    Tensor x(Shape{4, 1, 2, 2});
    x.fill(10.0f);
    // Before any training step, running mean 0 / var 1: eval output
    // equals the input (gamma=1, beta=0).
    const Tensor y = bn.forward(x, /*training=*/false);
    EXPECT_NEAR(y(0, 0, 0, 0), 10.0f, 1e-3f);
}

// ------------------------------------------------- BN / ReLU golden bits

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

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/**
 * Fold every element's bit pattern, signed zeros included, into h.
 * Every NaN folds as the one canonical quiet NaN: which operand's NaN
 * an x86 instruction propagates, and with which sign, differs between
 * a fused multiply-add and the libm fallback a host without FMA runs,
 * so NaN payloads are not portable. That a result is NaN is.
 */
uint64_t
hashBits(uint64_t h, const Tensor &t)
{
    const float *p = t.data();
    for (int64_t i = 0; i < t.numel(); ++i) {
        uint32_t bits = 0x7fc00000u;
        if (!std::isnan(p[i]))
            std::memcpy(&bits, p + i, sizeof(bits));
        h = fnv1a(h, bits);
    }
    return h;
}

/**
 * An NCHW tensor of values in [-2, 2), a tenth of them -0.0f, built
 * from the integer generator only (no libm) so the inputs are the same
 * bits on every host. The last sample carries the IEEE specials: NaN
 * in channel 1, +inf in channel 2 and -inf in the last channel, where
 * those exist. Channel 0 stays finite, so every shape keeps at least
 * one channel of ordinary arithmetic.
 */
Tensor
specialsTensor(const Shape &shape, uint64_t seed)
{
    Xorshift128Plus rng(seed);
    Tensor t(shape);
    float *p = t.data();
    for (int64_t i = 0; i < t.numel(); ++i) {
        const float v = 4.0f * rng.nextFloat() - 2.0f;
        p[i] = rng.nextDouble() < 0.1 ? -0.0f : v;
    }
    const int64_t c = shape[1];
    const int64_t plane = shape[2] * shape[3];
    float *last = p + (shape[0] - 1) * c * plane;
    const float inf = std::numeric_limits<float>::infinity();
    if (c > 1)
        last[1 * plane] = std::numeric_limits<float>::quiet_NaN();
    if (c > 2)
        last[2 * plane + plane / 2] = inf;
    if (c > 2)
        last[(c - 1) * plane + plane - 1] = -inf;
    return t;
}

/** Hashes of everything one BatchNorm2d produces. */
struct BnBits
{
    uint64_t y = kFnvBasis;       //!< training-mode outputs, two steps
    uint64_t dx = kFnvBasis;      //!< input gradients, two steps
    uint64_t grads = kFnvBasis;   //!< accumulated dgamma then dbeta
    uint64_t running = kFnvBasis; //!< running mean then running var
    uint64_t eval = kFnvBasis;    //!< eval-mode output

    bool
    operator==(const BnBits &o) const
    {
        return y == o.y && dx == o.dx && grads == o.grads &&
               running == o.running && eval == o.eval;
    }
};

/** Two training steps (forward, backward) then one eval forward. */
BnBits
runBatchNorm(const Shape &shape)
{
    const int64_t c = shape[1];
    BatchNorm2d bn(c, "bn");
    Xorshift128Plus rng(static_cast<uint64_t>(77 + c));
    for (int64_t ic = 0; ic < c; ++ic) {
        bn.gamma().value.at(ic) = 0.5f + rng.nextFloat();
        bn.beta().value.at(ic) = rng.nextFloat() - 0.5f;
    }
    const auto seed = static_cast<uint64_t>(100 * c);
    BnBits bits;
    for (uint64_t step = 0; step < 2; ++step) {
        const Tensor x = specialsTensor(shape, seed + 2 * step);
        const Tensor dy = specialsTensor(shape, seed + 2 * step + 1);
        bits.y = hashBits(bits.y, bn.forward(x, /*training=*/true));
        bits.dx = hashBits(bits.dx, bn.backward(dy));
    }
    bits.grads = hashBits(hashBits(bits.grads, bn.gamma().grad),
                          bn.beta().grad);
    bits.running = hashBits(hashBits(bits.running, bn.runningMean()),
                            bn.runningVar());
    bits.eval = hashBits(
        bits.eval, bn.forward(specialsTensor(shape, seed + 9), false));
    return bits;
}

/** Hashes of one ReLU forward + backward. */
struct ReluBits
{
    uint64_t y = kFnvBasis;
    uint64_t dx = kFnvBasis;
    uint64_t sparsity = 0;   //!< bits of lastOutputSparsity()

    bool
    operator==(const ReluBits &o) const
    {
        return y == o.y && dx == o.dx && sparsity == o.sparsity;
    }
};

ReluBits
runRelu(const Shape &shape)
{
    const auto seed = static_cast<uint64_t>(300 * shape[1]);
    ReLU relu("r");
    ReluBits bits;
    bits.y = hashBits(bits.y, relu.forward(specialsTensor(shape, seed),
                                           /*training=*/true));
    bits.dx = hashBits(bits.dx,
                       relu.backward(specialsTensor(shape, seed + 1)));
    const double sparsity = relu.lastOutputSparsity();
    std::memcpy(&bits.sparsity, &sparsity, sizeof(sparsity));
    return bits;
}

struct LayerGolden
{
    int64_t channels;
    BnBits bn;
    ReluBits relu;
};

/**
 * BN and ReLU bits at C = 3, 8, 13 and 64 on a 3 x C x 5 x 7 batch:
 * channel counts below, at, between and well past a multiple of eight,
 * and a 35-element plane that is no multiple of a vector width. The
 * values were recorded with the one-channel-at-a-time BatchNorm2d and
 * the float-mask ReLU built for an x86-64-v3 (FMA) host, where the
 * compiler fused BN's multiply-adds; the layers now spell those fusions
 * out, so every host must reproduce these bits, signed zeros included.
 */
const LayerGolden kLayerGolden[] = {
    {3,
     {0xd24120714b82b2bdULL, 0xe554bcdecc66325cULL, 0xbb57a17550cbeeb1ULL,
      0x6dc04bf308c37e89ULL, 0xaba6f6462a933d24ULL},
     {0x1d0b11df6efe53c1ULL, 0xd8dd5f87f88693b4ULL, 0x3fe1111111111111ULL}},
    {8,
     {0x00e45c8ee234a3f7ULL, 0x8d91b325a4e4f8e1ULL, 0x27090628883967baULL,
      0xb23edab14d039f80ULL, 0x62fa410e8cb8dc9fULL},
     {0x6d95d32597bf97ebULL, 0x4f909720c4a8d939ULL, 0x3fe15f15f15f15f1ULL}},
    {13,
     {0x971a9df3737f044eULL, 0x456b2a5130c5a6fbULL, 0x64b43268c8f985edULL,
      0x1479b1399e957d91ULL, 0xfa484a4557af2142ULL},
     {0x9837dc0120599cb1ULL, 0xe4af5707e209e7edULL, 0x3fe1fb1fb1fb1fb2ULL}},
    {64,
     {0xe855fde2d4c1c8a6ULL, 0x3200af6c6f7195f0ULL, 0x4ad62283cb99ff34ULL,
      0x5b330372b8959eebULL, 0x8acc52748755e01eULL},
     {0x6d334bdf45b03566ULL, 0xe73a360e8be88375ULL, 0x3fe162be2be2be2cULL}},
};

TEST(LayerGolden, BatchNormAndReluBitsMatchRecording)
{
    for (const LayerGolden &g : kLayerGolden) {
        const Shape shape{3, g.channels, 5, 7};
        const BnBits bn = runBatchNorm(shape);
        const ReluBits relu = runRelu(shape);
        const std::string at = "C=" + std::to_string(g.channels);
        EXPECT_EQ(bn.y, g.bn.y) << at << " bn y";
        EXPECT_EQ(bn.dx, g.bn.dx) << at << " bn dx";
        EXPECT_EQ(bn.grads, g.bn.grads) << at << " bn dgamma/dbeta";
        EXPECT_EQ(bn.running, g.bn.running) << at << " bn running stats";
        EXPECT_EQ(bn.eval, g.bn.eval) << at << " bn eval y";
        EXPECT_EQ(relu.y, g.relu.y) << at << " relu y";
        EXPECT_EQ(relu.dx, g.relu.dx) << at << " relu dx";
        EXPECT_EQ(relu.sparsity, g.relu.sparsity) << at << " relu sparsity";
    }
}

/** Restores the default global pool when a sweep test exits. */
struct GlobalPoolGuard
{
    ~GlobalPoolGuard() { ThreadPool::resetGlobal(0); }
};

TEST(LayerThreadSweep, BatchNormAndReluBitwiseIdentical)
{
    // C = 13 leaves a ragged channel block; the 4 x 40 x 16 x 16 batch
    // is large enough that every pass splits over several pool tasks.
    GlobalPoolGuard guard;
    const Shape shapes[] = {Shape{3, 13, 5, 7}, Shape{4, 40, 16, 16}};
    ThreadPool::resetGlobal(1);
    std::vector<std::pair<BnBits, ReluBits>> ref;
    for (const Shape &s : shapes)
        ref.emplace_back(runBatchNorm(s), runRelu(s));
    for (int threads : {2, 3, 8}) {
        ThreadPool::resetGlobal(threads);
        ASSERT_EQ(ThreadPool::global().numThreads(), threads);
        for (size_t i = 0; i < ref.size(); ++i) {
            EXPECT_TRUE(runBatchNorm(shapes[i]) == ref[i].first)
                << shapes[i].str() << " threads=" << threads;
            EXPECT_TRUE(runRelu(shapes[i]) == ref[i].second)
                << shapes[i].str() << " threads=" << threads;
        }
    }
}

TEST(ReLU, CachedOutputStaysACopyOnWriteAlias)
{
    // ReLU caches its output by sharing the returned tensor's buffer.
    // backward() must read that cache without detaching it, or every
    // step would copy the whole activation.
    ReLU relu("r");
    const Shape shape{2, 3, 4, 5};
    const Tensor y = relu.forward(specialsTensor(shape, 11), true);
    const float *before = y.data();
    ASSERT_TRUE(y.sharesStorage());
    LayerStepReport after_forward;
    ASSERT_TRUE(relu.stepReport(&after_forward));

    relu.backward(specialsTensor(shape, 12));
    EXPECT_TRUE(y.sharesStorage());
    EXPECT_EQ(y.data(), before);

    // The activation density the trace consumes is still the measured
    // non-zero fraction of the forward output.
    LayerStepReport r;
    ASSERT_TRUE(relu.stepReport(&r));
    EXPECT_EQ(r.kind, LayerStepReport::Kind::Activation);
    EXPECT_EQ(r.batch, 2);
    EXPECT_EQ(r.outputDensity, after_forward.outputDensity);
    EXPECT_EQ(r.outputDensity, 1.0 - relu.lastOutputSparsity());
    EXPECT_EQ(r.outputDensity, 1.0 - y.zeroFraction());
}

TEST(BatchNormDeathTest, BackwardNeedsATrainingForward)
{
    // An eval-mode forward (the validation pass) caches nothing and
    // drops what the last training forward cached, so a backward after
    // it fails loudly instead of reading a stale xhat.
    const Shape shape{2, 3, 4, 4};
    const Tensor x = specialsTensor(shape, 21);
    const Tensor dy = specialsTensor(shape, 22);
    BatchNorm2d fresh(3, "bn");
    EXPECT_DEATH(fresh.backward(dy), "needs a training-mode forward");

    BatchNorm2d bn(3, "bn");
    bn.forward(x, /*training=*/true);
    bn.forward(x, /*training=*/false);
    EXPECT_DEATH(bn.backward(dy), "needs a training-mode forward");

    bn.forward(x, /*training=*/true);
    EXPECT_EQ(bn.backward(dy).shape(), shape);
}

TEST(MaxPool, SelectsMaxAndRoutesGradient)
{
    MaxPool2d pool(2, "p");
    Tensor x(Shape{1, 1, 2, 2});
    x(0, 0, 0, 0) = 1.0f;
    x(0, 0, 0, 1) = 5.0f;
    x(0, 0, 1, 0) = -2.0f;
    x(0, 0, 1, 1) = 0.5f;
    const Tensor y = pool.forward(x, true);
    EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
    EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 5.0f);

    Tensor dy(Shape{1, 1, 1, 1});
    dy.fill(2.0f);
    const Tensor dx = pool.backward(dy);
    EXPECT_FLOAT_EQ(dx(0, 0, 0, 1), 2.0f);
    EXPECT_FLOAT_EQ(dx(0, 0, 0, 0), 0.0f);
}

TEST(GlobalAvgPool, AveragesPlane)
{
    GlobalAvgPool gap("g");
    Tensor x(Shape{1, 2, 2, 2});
    for (int i = 0; i < 4; ++i)
        x.at(i) = static_cast<float>(i + 1);   // channel 0: 1..4
    x.at(4) = 8.0f;                            // channel 1: 8,0,0,0
    const Tensor y = gap.forward(x, true);
    EXPECT_EQ(y.shape(), Shape({1, 2}));
    EXPECT_FLOAT_EQ(y(0, 0), 2.5f);
    EXPECT_FLOAT_EQ(y(0, 1), 2.0f);
}

TEST(Flatten, RoundTrip)
{
    Flatten fl("f");
    Tensor x(Shape{2, 3, 4, 4});
    x(1, 2, 3, 3) = 9.0f;
    const Tensor y = fl.forward(x, true);
    EXPECT_EQ(y.shape(), Shape({2, 48}));
    EXPECT_FLOAT_EQ(y(1, 47), 9.0f);
    const Tensor dx = fl.backward(y);
    EXPECT_EQ(dx.shape(), x.shape());
}

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC)
{
    SoftmaxCrossEntropy loss;
    Tensor logits(Shape{2, 4});
    const double l = loss.forward(logits, {0, 3});
    EXPECT_NEAR(l, std::log(4.0), 1e-6);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZero)
{
    SoftmaxCrossEntropy loss;
    Xorshift128Plus rng(2);
    Tensor logits(Shape{3, 5});
    logits.fillGaussian(rng, 1.0f);
    loss.forward(logits, {1, 2, 4});
    const Tensor g = loss.backward();
    // Softmax-CE gradient rows sum to zero.
    for (int n = 0; n < 3; ++n) {
        double row = 0.0;
        for (int j = 0; j < 5; ++j)
            row += g(n, j);
        EXPECT_NEAR(row, 0.0, 1e-6);
    }
}

TEST(SoftmaxCrossEntropy, AccuracyTracksArgmax)
{
    SoftmaxCrossEntropy loss;
    Tensor logits(Shape{2, 3});
    logits(0, 1) = 5.0f;   // predicts class 1
    logits(1, 0) = 5.0f;   // predicts class 0
    loss.forward(logits, {1, 2});
    EXPECT_DOUBLE_EQ(loss.accuracy(), 0.5);
}

/**
 * Every field of a LayerStepReport, in declaration order, folded into
 * one digest: names, geometry, flags, MAC tallies, byte counts, the
 * mask bits and every density (bit patterns of the doubles).
 */
uint64_t
reportDigest(const LayerStepReport &r)
{
    uint64_t h = kFnvBasis;
    const auto word = [&h](int64_t v) {
        h = fnv1a(h, static_cast<uint64_t>(v));
    };
    const auto reals = [&h, &word](const std::vector<double> &v) {
        word(static_cast<int64_t>(v.size()));
        for (double d : v) {
            uint64_t bits = 0;
            std::memcpy(&bits, &d, sizeof(bits));
            h = fnv1a(h, bits);
        }
    };
    for (char ch : r.layerName)
        word(static_cast<unsigned char>(ch));
    word(static_cast<int64_t>(r.kind));
    for (int64_t v : {r.batch, r.K, r.C, r.R, r.S, r.P, r.Q, r.stride})
        word(v);
    word(r.hasMacs);
    word(r.sparseExecuted);
    for (int64_t v : {r.fwMacs, r.bwDataMacs, r.bwWeightMacs})
        word(v);
    word(r.hasWeightBytes);
    word(r.csbWeightBytes);
    word(r.denseWeightBytes);
    word(r.hasMask);
    for (int64_t v : {r.mask.K, r.mask.C, r.mask.R, r.mask.S})
        word(v);
    word(static_cast<int64_t>(r.mask.bits.size()));
    for (uint8_t bit : r.mask.bits)
        word(bit);
    word(r.hasExchange);
    word(r.exchangeCompressedBytes);
    word(r.exchangeDenseBytes);
    reals({r.inputDensity, r.outputDensity});
    reals(r.inputChannelDensity);
    reals(r.inputSampleDensity);
    reals(r.inputSampleHalfDensity);
    reals(r.inputRowDensity);
    reals(r.inputColDensity);
    return h;
}

/**
 * Values in [-1, 1) from the integer generator (the same bits on every
 * host), each exactly zero with probability `zeros`: a ReLU-like
 * activation, a pruned weight or a gradient with skippable zeros.
 */
Tensor
sparseValues(const Shape &shape, uint64_t seed, double zeros)
{
    Xorshift128Plus rng(seed);
    Tensor t(shape);
    for (int64_t i = 0; i < t.numel(); ++i) {
        const float v = 2.0f * rng.nextFloat() - 1.0f;
        t.at(i) = rng.nextDouble() < zeros ? 0.0f : v;
    }
    return t;
}

/** One weight layer's step-report recording on one backend. */
struct ReportGolden
{
    bool conv;   //!< Conv2d, else Linear
    kernels::KernelBackend backend;
    int64_t fwMacs, bwDataMacs, bwWeightMacs;   //!< after backward
    int64_t csbBytes;
    uint64_t forwardOnly;     //!< digest after forward, before backward
    uint64_t afterBackward;   //!< digest after the backward
};

/** A Conv2d (stride 2, pad 1, 7x9 input) or a Linear, with bias. */
std::unique_ptr<WeightLayer>
makeReportLayer(bool conv, kernels::KernelBackend backend)
{
    const Tensor bias = sparseValues(Shape{6}, 5, 0.0);
    if (conv) {
        Conv2dConfig cfg;
        cfg.inChannels = 4;
        cfg.outChannels = 6;
        cfg.kernel = 3;
        cfg.stride = 2;
        cfg.pad = 1;
        auto l = std::make_unique<Conv2d>(cfg, "conv");
        l->setBackend(backend);
        l->weight().value = sparseValues(Shape{6, 4, 3, 3}, 6, 0.6);
        l->bias().value = bias;
        return l;
    }
    auto l = std::make_unique<Linear>(13, 6, "fc");
    l->setBackend(backend);
    l->weight().value = sparseValues(Shape{6, 13}, 7, 0.6);
    l->bias().value = bias;
    return l;
}

/** Forward x then backward dy; returns the two reports. */
std::pair<LayerStepReport, LayerStepReport>
reportStep(Layer *l, bool conv)
{
    const Tensor x = conv ? sparseValues(Shape{3, 4, 7, 9}, 8, 0.45)
                          : sparseValues(Shape{5, 13}, 9, 0.45);
    const Tensor dy = conv ? sparseValues(Shape{3, 6, 4, 5}, 10, 0.3)
                           : sparseValues(Shape{5, 6}, 11, 0.3);
    std::pair<LayerStepReport, LayerStepReport> out;
    l->forward(x, true);
    EXPECT_TRUE(l->stepReport(&out.first));
    l->backward(dy);
    EXPECT_TRUE(l->stepReport(&out.second));
    return out;
}

/**
 * Recorded on the layers as they stood before Conv2d and Linear shared
 * one base class, so the refactor had to keep every report field.
 */
const ReportGolden kReportGolden[] = {
    {true, kernels::KernelBackend::kNaive, 12960, 12960, 12960, 463,
     0x7c11af2abeab8904ULL, 0x94fb8dd995d6fb87ULL},
    {true, kernels::KernelBackend::kGemm, 12960, 12960, 12960, 463,
     0x7c11af2abeab8904ULL, 0x94fb8dd995d6fb87ULL},
    {true, kernels::KernelBackend::kSparse, 3747, 2431, 2106, 463,
     0x7c11af2abeab8904ULL, 0xc3307f8e124fd09bULL},
    {false, kernels::KernelBackend::kNaive, 390, 390, 390, 148,
     0xc3670b06413430a4ULL, 0x231c32b6dc953750ULL},
    {false, kernels::KernelBackend::kGemm, 390, 390, 390, 148,
     0xc3670b06413430a4ULL, 0x231c32b6dc953750ULL},
    {false, kernels::KernelBackend::kSparse, 150, 110, 96, 148,
     0xc3670b06413430a4ULL, 0x8e2b40e83c5b0c5cULL},
};

TEST(WeightLayerReport, EveryFieldMatchesRecording)
{
    for (const ReportGolden &g : kReportGolden) {
        const std::string at =
            std::string(g.conv ? "conv" : "fc") + " backend " +
            std::to_string(static_cast<int>(g.backend));
        auto l = makeReportLayer(g.conv, g.backend);
        LayerStepReport before;
        before.layerName = "untouched";
        EXPECT_FALSE(l->stepReport(&before)) << at;
        EXPECT_EQ(before.layerName, "untouched") << at;

        const auto [fw, bw] = reportStep(l.get(), g.conv);
        EXPECT_FALSE(fw.hasMacs) << at;
        EXPECT_TRUE(bw.hasMacs) << at;
        EXPECT_EQ(bw.sparseExecuted,
                  g.backend == kernels::KernelBackend::kSparse)
            << at;
        EXPECT_EQ(bw.fwMacs, g.fwMacs) << at;
        EXPECT_EQ(bw.bwDataMacs, g.bwDataMacs) << at;
        EXPECT_EQ(bw.bwWeightMacs, g.bwWeightMacs) << at;
        EXPECT_EQ(bw.csbWeightBytes, g.csbBytes) << at;
        EXPECT_EQ(reportDigest(fw), g.forwardOnly) << at;
        EXPECT_EQ(reportDigest(bw), g.afterBackward) << at;
    }
}

TEST(WeightLayerDeathTest, BackwardNeedsTheForwardBackend)
{
    // A kSparse backward after a kGemm forward would run on the CSB
    // image of an earlier sparse step, with stale weights.
    for (bool conv : {true, false}) {
        auto l = makeReportLayer(conv, kernels::KernelBackend::kSparse);
        reportStep(l.get(), conv);
        for (int64_t i = 0; i < l->weight().value.numel(); ++i)
            l->weight().value.at(i) *= 3.0f;
        l->setBackend(kernels::KernelBackend::kGemm);
        const Tensor x = conv ? sparseValues(Shape{3, 4, 7, 9}, 8, 0.45)
                              : sparseValues(Shape{5, 13}, 9, 0.45);
        const Tensor y = l->forward(x, true);
        l->setBackend(kernels::KernelBackend::kSparse);
        EXPECT_DEATH(l->backward(y),
                     "backend changed between forward and backward");
    }
}

TEST(WeightLayerReport, MacsFollowTheForwardBackend)
{
    // A sparse step, then a gemm step, then a switch back to kSparse
    // with no step on it: the report describes the gemm step.
    for (bool conv : {true, false}) {
        auto l = makeReportLayer(conv, kernels::KernelBackend::kSparse);
        EXPECT_TRUE(reportStep(l.get(), conv).second.sparseExecuted);
        l->setBackend(kernels::KernelBackend::kGemm);
        const LayerStepReport gemm = reportStep(l.get(), conv).second;
        l->setBackend(kernels::KernelBackend::kSparse);
        LayerStepReport r;
        ASSERT_TRUE(l->stepReport(&r));
        EXPECT_TRUE(r.hasMacs);
        EXPECT_FALSE(r.sparseExecuted) << (conv ? "conv" : "fc");
        EXPECT_EQ(r.fwMacs, gemm.fwMacs);
        EXPECT_EQ(r.bwDataMacs, gemm.bwDataMacs);
        EXPECT_EQ(r.bwWeightMacs, gemm.bwWeightMacs);
        EXPECT_EQ(reportDigest(r), reportDigest(gemm));
    }
}

/** Exact bit equality — distinguishes +0 from -0. */
bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(std::as_const(a).data(), std::as_const(b).data(),
                       sizeof(float) * a.numel()) == 0;
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

TEST(SparseWeightLayer, LinearForwardEqualsExecutor)
{
    // A kSparse Linear adds nothing to the executor it dispatches to:
    // the layer runs fc as a 1x1 conv over the batch plane [1, I, 1, N],
    // so the executor on the same operands matches bit for bit.
    const int64_t n = 6, i_ext = 21, o_ext = 17;
    Linear layer(i_ext, o_ext, "fc", /*with_bias=*/false);
    layer.setBackend(kernels::KernelBackend::kSparse);

    Xorshift128Plus rng(61);
    layer.weight().value.fillGaussian(rng, 0.5f);
    pruneTo(&layer.weight().value, 0.4, 67);
    Tensor x(Shape{n, i_ext});
    x.fillGaussian(rng, 1.0f);

    const Tensor y = layer.forward(x, true);

    Tensor w4 = layer.weight().value;
    w4.reshape(Shape{o_ext, i_ext, 1, 1});
    const auto csb = sparse::CsbTensor::encodeConvFilters(w4);
    const sparse::ConvTapPack pack = sparse::packConvTaps(csb, 1, n, 1, 0);
    Tensor xp(Shape{1, i_ext, 1, n});
    kernels::transpose(x.data(), n, i_ext, xp.data());
    const Tensor yp =
        sparse::sparseConvForward(xp, csb, 1, 0, nullptr, &pack);
    Tensor y_ref(Shape{n, o_ext});
    kernels::transpose(yp.data(), o_ext, n, y_ref.data());
    EXPECT_TRUE(bitwiseEqual(y, y_ref));
}

TEST(SparseWeightLayer, ConvTrainingStepEqualsExecutor)
{
    Conv2dConfig cfg;
    cfg.inChannels = 3;
    cfg.outChannels = 5;
    cfg.kernel = 3;
    cfg.stride = 1;
    cfg.pad = 1;
    cfg.bias = false;
    Conv2d layer(cfg, "conv");
    layer.setBackend(kernels::KernelBackend::kSparse);

    Xorshift128Plus rng(71);
    layer.weight().value.fillGaussian(rng, 0.5f);
    pruneTo(&layer.weight().value, 0.4, 73);
    Tensor x(Shape{2, 3, 7, 9});
    x.fillGaussian(rng, 1.0f);
    Tensor dy(Shape{2, 5, 7, 9});
    dy.fillGaussian(rng, 1.0f);

    const Tensor y = layer.forward(x, true);
    const Tensor dx = layer.backward(dy);

    const auto csb =
        sparse::CsbTensor::encodeConvFilters(layer.weight().value);
    const Tensor y_ref = sparse::sparseConvForward(x, csb, 1, 1);
    const Tensor dx_ref =
        sparse::sparseConvBackwardData(dy, csb, x.shape(), 1, 1);
    Tensor dw_ref(layer.weight().value.shape());
    sparse::sparseConvBackwardWeights(x, dy, csb, 1, 1, &dw_ref);

    EXPECT_TRUE(bitwiseEqual(y, y_ref));
    EXPECT_TRUE(bitwiseEqual(dx, dx_ref));
    EXPECT_TRUE(bitwiseEqual(layer.weight().grad, dw_ref));
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
            auto l = std::make_unique<Linear>(i_ext, o_ext, "fc");
            l->setBackend(kernels::KernelBackend::kSparse);
            l->weight().value = wv;
            l->bias().value = b;
            return l;
        },
        w, x, dy, x_other);
}

TEST(MaskStableRefresh, Conv2dReusesTapGeometryAcrossSteps)
{
    // The conv pack is keyed by the input plane: 7x9 becomes 8x6.
    Conv2dConfig cfg;
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
            auto l = std::make_unique<Conv2d>(cfg, "conv");
            l->setBackend(kernels::KernelBackend::kSparse);
            l->weight().value = wv;
            l->bias().value = b;
            return l;
        },
        w, x, dy, x_other);
}

} // namespace
} // namespace nn
} // namespace procrustes
