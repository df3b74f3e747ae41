/**
 * @file
 * nn::Linear under KernelBackend::kSparse. The layer runs fc as a 1x1
 * convolution over the batch plane on the sparse_conv executors, so
 * these tests pin what that path must keep:
 *
 *   - parity: y / dx / dW / db match the kNaive reference on masked
 *     weights at 0%, 50% and 80% weight sparsity with 50-60% operand
 *     zeros, and pruned positions receive exactly no gradient;
 *   - gradients: finite differences of dx and dW. Linear is bilinear,
 *     so a large central-difference step (0.25) has zero truncation
 *     error and the checks run at 1e-3 in fp32;
 *   - MAC accounting: the step report's tallies match a brute force
 *     honouring the weight mask and operand zeros;
 *   - determinism: every result is bitwise identical at 1 / 2 / 3 / 8
 *     pool threads (batches below and above the 8-lane width; the
 *     gemm backend too) and between the scalar and AVX2 levels;
 *   - goldens: dx and the three MAC tallies keep the values of the
 *     dedicated fc executors this path replaced; y and dW are pinned
 *     at the 1x1-conv bits.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "brute_force_macs.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "kernels/backend.h"
#include "kernels/gemm.h"
#include "kernels/sparse_microkernels.h"
#include "nn/linear.h"
#include "sparse/csb.h"
#include "sparse/mask.h"
#include "sparse/sparse_conv.h"

namespace procrustes {
namespace {

/** Masked random [O, I] weight matrix at a given density. */
Tensor
maskedMatrix(int64_t o_ext, int64_t i_ext, double density, uint64_t seed)
{
    Xorshift128Plus rng(seed);
    Tensor w(Shape{o_ext, i_ext});
    w.fillGaussian(rng, 0.5f);
    if (density >= 1.0)
        return w;
    sparse::SyntheticMaskConfig cfg;
    cfg.targetDensity = density;
    cfg.seed = seed + 1;
    const sparse::SparsityMask m =
        sparse::makeSyntheticMask(o_ext, i_ext, 1, 1, cfg);
    for (int64_t i = 0; i < w.numel(); ++i) {
        if (!m.bits[static_cast<size_t>(i)])
            w.at(i) = 0.0f;
    }
    return w;
}

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

/** Gaussian [rows, cols] operand with a fraction of exact zeros. */
Tensor
operand(int64_t rows, int64_t cols, uint64_t seed, double zero_fraction)
{
    Xorshift128Plus rng(seed);
    Tensor t(Shape{rows, cols});
    t.fillGaussian(rng, 1.0f);
    zeroSome(&t, seed + 7, zero_fraction);
    return t;
}

/** Exact bit equality — distinguishes +0 from -0, unlike maxAbsDiff. */
bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           (a.numel() == 0 ||
            std::memcmp(std::as_const(a).data(), std::as_const(b).data(),
                        sizeof(float) * a.numel()) == 0);
}

/** FNV-1a over the bits of a tensor's elements. */
uint64_t
bitsHash(const Tensor &t)
{
    uint64_t h = 1469598103934665603ULL;
    const auto *p =
        reinterpret_cast<const unsigned char *>(std::as_const(t).data());
    for (size_t i = 0; i < sizeof(float) * static_cast<size_t>(t.numel());
         ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

/** Restores the process-wide pool to its env-resolved size on exit. */
struct GlobalPoolGuard
{
    ~GlobalPoolGuard() { ThreadPool::resetGlobal(0); }
};

/** Restores the dispatch level active at construction on exit. */
struct SimdLevelGuard
{
    kernels::SimdLevel saved = kernels::activeSimdLevel();
    ~SimdLevelGuard() { kernels::setSimdLevel(saved); }
};

/** The SIMD levels this build and host can run. */
std::vector<kernels::SimdLevel>
simdLevels()
{
    std::vector<kernels::SimdLevel> out{kernels::SimdLevel::kScalar};
    if (kernels::avx2Supported())
        out.push_back(kernels::SimdLevel::kAvx2);
    return out;
}

/** Everything one Linear training step produces. */
struct FcStep
{
    Tensor y, dx, dw, db;
    int64_t fw = -1, bwd = -1, bww = -1;   //!< step-report MAC tallies
};

/** One forward + backward step of a Linear on the given backend. */
FcStep
runStep(kernels::KernelBackend backend, const Tensor &w, const Tensor &b,
        const Tensor &x, const Tensor &dy)
{
    const bool with_bias = b.numel() > 0;
    nn::Linear layer(w.shape()[1], w.shape()[0], "fc", with_bias);
    layer.setBackend(backend);
    layer.weight().value = w;
    if (with_bias)
        layer.bias().value = b;
    FcStep out;
    out.y = layer.forward(x, true);
    out.dx = layer.backward(dy);
    out.dw = layer.weight().grad;
    if (with_bias)
        out.db = layer.bias().grad;
    nn::LayerStepReport rep;
    EXPECT_TRUE(layer.stepReport(&rep));
    EXPECT_TRUE(rep.hasMacs);
    out.fw = rep.fwMacs;
    out.bwd = rep.bwDataMacs;
    out.bww = rep.bwWeightMacs;
    return out;
}

FcStep
runSparse(const Tensor &w, const Tensor &b, const Tensor &x,
          const Tensor &dy)
{
    return runStep(kernels::KernelBackend::kSparse, w, b, x, dy);
}

/** Bitwise equality of every output and tally of two steps. */
void
expectSameStep(const FcStep &got, const FcStep &ref, const std::string &tag)
{
    EXPECT_TRUE(bitwiseEqual(got.y, ref.y)) << "y " << tag;
    EXPECT_TRUE(bitwiseEqual(got.dx, ref.dx)) << "dx " << tag;
    EXPECT_TRUE(bitwiseEqual(got.dw, ref.dw)) << "dw " << tag;
    EXPECT_TRUE(bitwiseEqual(got.db, ref.db)) << "db " << tag;
    EXPECT_EQ(got.fw, ref.fw) << tag;
    EXPECT_EQ(got.bwd, ref.bwd) << tag;
    EXPECT_EQ(got.bww, ref.bww) << tag;
}

/** L = <sparse Linear forward(x), dy>, accumulated in double. */
double
sparseLoss(const Tensor &x, const Tensor &w, const Tensor &dy)
{
    nn::Linear layer(w.shape()[1], w.shape()[0], "fc", false);
    layer.setBackend(kernels::KernelBackend::kSparse);
    layer.weight().value = w;
    const Tensor y = layer.forward(x, true);
    const float *py = y.data();
    const float *pdy = dy.data();
    double loss = 0.0;
    for (int64_t i = 0; i < y.numel(); ++i)
        loss += static_cast<double>(py[i]) * pdy[i];
    return loss;
}

class SparseFc : public ::testing::TestWithParam<double>
{
};

TEST_P(SparseFc, MatchesNaiveReferenceOnMaskedWeights)
{
    // Skipping a zero operand must not change a number beyond fp32
    // reassociation, and pruned positions must receive exactly no
    // gradient (the naive reference updates them; the CSB path may not).
    const double density = GetParam();
    const int64_t n = 5, i_ext = 19, o_ext = 13;
    const Tensor w = maskedMatrix(o_ext, i_ext, density, 301);
    Tensor bias = operand(1, o_ext, 303, 0.0);
    bias.reshape(Shape{o_ext});
    const Tensor x = operand(n, i_ext, 307, 0.55);
    const Tensor dy = operand(n, o_ext, 313, 0.5);

    const FcStep ref =
        runStep(kernels::KernelBackend::kNaive, w, bias, x, dy);
    const FcStep got = runSparse(w, bias, x, dy);

    auto near = [](float a, float r) {
        return std::fabs(a - r) <= 1e-4f * (1.0f + std::fabs(r));
    };
    for (int64_t i = 0; i < got.y.numel(); ++i)
        ASSERT_TRUE(near(got.y.at(i), ref.y.at(i)))
            << "y[" << i << "] density=" << density;
    for (int64_t i = 0; i < got.dx.numel(); ++i)
        ASSERT_TRUE(near(got.dx.at(i), ref.dx.at(i)))
            << "dx[" << i << "] density=" << density;
    for (int64_t i = 0; i < got.db.numel(); ++i)
        ASSERT_TRUE(near(got.db.at(i), ref.db.at(i))) << "db[" << i << "]";
    for (int64_t i = 0; i < got.dw.numel(); ++i) {
        if (w.at(i) == 0.0f)
            ASSERT_EQ(got.dw.at(i), 0.0f) << "pruned w[" << i << "]";
        else
            ASSERT_TRUE(near(got.dw.at(i), ref.dw.at(i)))
                << "dw[" << i << "] density=" << density;
    }
}

TEST_P(SparseFc, BackwardDataMatchesFiniteDifferences)
{
    const double density = GetParam();
    const Tensor w = maskedMatrix(11, 17, density, 401);
    Tensor x = operand(4, 17, 403, 0.5);
    const Tensor dy = operand(4, 11, 419, 0.5);

    const FcStep step = runSparse(w, Tensor(), x, dy);

    const float eps = 0.25f;
    for (int64_t i = 0; i < x.numel(); ++i) {
        const float orig = x.at(i);
        x.at(i) = orig + eps;
        const double lp = sparseLoss(x, w, dy);
        x.at(i) = orig - eps;
        const double lm = sparseLoss(x, w, dy);
        x.at(i) = orig;
        const double numeric = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(step.dx.at(i), numeric,
                    1e-3 * std::max(1.0, std::fabs(numeric)))
            << "density=" << density << " x[" << i << "]";
    }
}

TEST_P(SparseFc, BackwardWeightsMatchesFiniteDifferences)
{
    const double density = GetParam();
    Tensor w = maskedMatrix(9, 15, density, 421);
    const Tensor x = operand(4, 15, 431, 0.6);
    const Tensor dy = operand(4, 9, 433, 0.0);

    const FcStep step = runSparse(w, Tensor(), x, dy);

    const float eps = 0.25f;
    int checked = 0;
    for (int64_t i = 0; i < w.numel(); ++i) {
        if (w.at(i) == 0.0f) {
            ASSERT_EQ(step.dw.at(i), 0.0f) << "pruned w[" << i << "]";
            continue;   // only live positions carry gradient
        }
        ++checked;
        const float orig = w.at(i);
        w.at(i) = orig + eps;
        const double lp = sparseLoss(x, w, dy);
        w.at(i) = orig - eps;
        const double lm = sparseLoss(x, w, dy);
        w.at(i) = orig;
        const double numeric = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(step.dw.at(i), numeric,
                    1e-3 * std::max(1.0, std::fabs(numeric)))
            << "density=" << density << " w[" << i << "]";
    }
    EXPECT_GT(checked, 0);
}

TEST_P(SparseFc, MacTalliesMatchBruteForce)
{
    const double density = GetParam();
    const int64_t n = 6, i_ext = 21, o_ext = 10;
    const Tensor w = maskedMatrix(o_ext, i_ext, density, 503);
    const Tensor x = operand(n, i_ext, 509, 0.55);
    const Tensor dy = operand(n, o_ext, 521, 0.5);

    // The executors' skip rules replayed as plain loops: every live
    // weight fires once per sample forward, once per non-zero dy
    // backward-data, once per non-zero x backward-weight.
    int64_t fw = 0, bwd = 0, bww = 0;
    for (int64_t o = 0; o < o_ext; ++o) {
        for (int64_t i = 0; i < i_ext; ++i) {
            if (w(o, i) == 0.0f)
                continue;
            for (int64_t in = 0; in < n; ++in) {
                ++fw;
                bwd += dy(in, o) != 0.0f;
                bww += x(in, i) != 0.0f;
            }
        }
    }

    const FcStep step = runSparse(w, Tensor(), x, dy);
    EXPECT_EQ(step.fw, fw);
    EXPECT_EQ(step.bwd, bwd);
    EXPECT_EQ(step.bww, bww);

    // The conv brute force over the batch-plane view the executors run
    // agrees, and with operand zeros present the backward counts sit
    // below the weight-only bound.
    Tensor w4 = w;
    w4.reshape(Shape{o_ext, i_ext, 1, 1});
    const sparse::CsbTensor csb = sparse::CsbTensor::encodeConvFilters(w4);
    Tensor xp(Shape{1, i_ext, 1, n});
    Tensor dyp(Shape{1, o_ext, 1, n});
    kernels::transpose(x.data(), n, i_ext, xp.data());
    kernels::transpose(dy.data(), n, o_ext, dyp.data());
    const PhaseMacs counted = bruteForceConvMacs(w4, xp, dyp, 1, 0);
    EXPECT_EQ(counted.forward, fw);
    EXPECT_EQ(counted.backwardData, bwd);
    EXPECT_EQ(counted.backwardWeight, bww);
    EXPECT_EQ(fw, csb.nnz() * n);
    EXPECT_LT(bwd, fw);
    EXPECT_LT(bww, fw);
    if (density <= 0.5)
        EXPECT_LT(fw, n * o_ext * i_ext);
}

// 0%, 50%, and 80% weight sparsity (the paper's fc operating points).
INSTANTIATE_TEST_SUITE_P(Densities, SparseFc,
                         ::testing::Values(1.0, 0.5, 0.2));

TEST(SparseFcAccumulate, WeightGradAccumulatesAcrossCalls)
{
    // Param::grad semantics: backward adds into weight().grad in place,
    // through the [O, I, 1, 1] view, and never overwrites it.
    const Tensor w = maskedMatrix(7, 12, 0.5, 601);
    const Tensor x = operand(3, 12, 607, 0.0);
    const Tensor dy = operand(3, 7, 611, 0.0);

    nn::Linear layer(12, 7, "fc");
    layer.setBackend(kernels::KernelBackend::kSparse);
    layer.weight().value = w;
    layer.forward(x, true);
    layer.backward(dy);
    const Tensor once = layer.weight().grad;
    layer.backward(dy);
    const Tensor &twice = layer.weight().grad;
    ASSERT_EQ(twice.shape(), w.shape());
    for (int64_t i = 0; i < once.numel(); ++i)
        ASSERT_EQ(twice.at(i), once.at(i) + once.at(i)) << i;
}

TEST(SparseFcEdge, AllPrunedMatrixGivesZeroGradAndZeroMacs)
{
    // A fully pruned fc matrix: every output is zero, nothing
    // executes, nothing accumulates.
    const Tensor w(Shape{6, 10});   // all zeros
    const Tensor x = operand(2, 10, 613, 0.0);
    const Tensor dy = operand(2, 6, 617, 0.0);

    const FcStep step = runSparse(w, Tensor(), x, dy);
    EXPECT_EQ(step.fw, 0);
    EXPECT_EQ(step.bwd, 0);
    EXPECT_EQ(step.bww, 0);
    for (const Tensor *t : {&step.y, &step.dx, &step.dw})
        for (int64_t i = 0; i < t->numel(); ++i)
            ASSERT_EQ(t->at(i), 0.0f);
}

// --------------------------------------- thread-count and SIMD sweeps

TEST(SparseFcThreads, StepBitwiseIdenticalAcrossThreadCounts)
{
    // Batches 3 and 5 sit below the 8-lane width (threads idle at pool
    // size 8), 16 spans two; in_features 37 leaves a ragged strip.
    // Each SIMD level must be thread-count invariant on its own terms;
    // the dense gemm backend is swept alongside.
    GlobalPoolGuard pool_guard;
    SimdLevelGuard simd_guard;
    const int64_t i_ext = 37, o_ext = 10;
    const Tensor w = maskedMatrix(o_ext, i_ext, 0.3, 701);
    Tensor bias = operand(1, o_ext, 703, 0.0);
    bias.reshape(Shape{o_ext});
    for (int64_t n : {3, 5, 16}) {
        const Tensor x = operand(n, i_ext, 709, 0.5);
        const Tensor dy = operand(n, o_ext, 719, 0.5);
        for (kernels::SimdLevel level : simdLevels()) {
            kernels::setSimdLevel(level);
            for (kernels::KernelBackend backend :
                 {kernels::KernelBackend::kSparse,
                  kernels::KernelBackend::kGemm}) {
                ThreadPool::resetGlobal(1);
                const FcStep ref = runStep(backend, w, bias, x, dy);
                for (int threads : {2, 3, 8}) {
                    ThreadPool::resetGlobal(threads);
                    ASSERT_EQ(ThreadPool::global().numThreads(), threads);
                    expectSameStep(
                        runStep(backend, w, bias, x, dy), ref,
                        std::string(kernels::kernelBackendName(backend)) + " " +
                            kernels::simdLevelName(level) +
                            " n=" + std::to_string(n) +
                            " threads=" + std::to_string(threads));
                }
            }
        }
    }
}

class SparseFcSimd : public ::testing::TestWithParam<double>
{
};

TEST_P(SparseFcSimd, PhasesBitwiseEqualScalarOnRaggedBatch)
{
    // Batch 13 is one 8-lane strip plus a 5-lane tail; 37 and 29 are
    // ragged against every 8-wide layout.
    if (!kernels::avx2Supported())
        GTEST_SKIP() << "no AVX2 on this build/host";
    SimdLevelGuard guard;
    const double density = GetParam();
    const int64_t n = 13, i_ext = 37, o_ext = 29;
    const Tensor w = maskedMatrix(o_ext, i_ext, density, 2000);
    const Tensor x = operand(n, i_ext, 2003, 0.5);
    const Tensor dy = operand(n, o_ext, 2007, 0.5);

    kernels::setSimdLevel(kernels::SimdLevel::kScalar);
    const FcStep ref = runSparse(w, Tensor(), x, dy);
    kernels::setSimdLevel(kernels::SimdLevel::kAvx2);
    expectSameStep(runSparse(w, Tensor(), x, dy), ref,
                   "density=" + std::to_string(density));
}

// 0%, 50%, 80%, and 95% weight sparsity.
INSTANTIATE_TEST_SUITE_P(Densities, SparseFcSimd,
                         ::testing::Values(1.0, 0.5, 0.2, 0.05));

// ------------------------------------------------------------- goldens

/** One golden fc step: shape, then the expected bits and tallies. */
struct FcGolden
{
    int64_t n, in, out;
    uint64_t dx;                //!< hash of dx's bits
    int64_t fw, bwd, bww;       //!< step-report MAC tallies
    uint64_t y, dw;             //!< hashes of y's and dW's bits
};

// dx and the MAC tallies are the values of the dedicated fc executors
// the batch-plane path replaced, and must not move: backward-data sums
// rounded products in output-channel order, as those did. y (one fused
// multiply-add per tap) and dW (the q-mod-8 lane tree) are the
// batch-plane path's own bits.
const FcGolden kFcGoldens[] = {
    {1, 13, 5, 0x9aea9dcede2ab48aULL, 13, 4, 8,
     0x45a7f9b59129f33cULL, 0x32e6c30b6389f62bULL},
    {7, 13, 5, 0x83664c899f2ac4aeULL, 91, 74, 41,
     0x9e8addd693495630ULL, 0x21a3dc3bd1661e3dULL},
    {9, 13, 5, 0x6df36d1bad7b7a1cULL, 117, 77, 55,
     0x6746ebb594208a66ULL, 0x21d63536e5355070ULL},
    {32, 13, 5, 0xee24947c1325455aULL, 416, 274, 220,
     0x5410887826a291fcULL, 0xdc66083d53604762ULL},
    {1, 64, 10, 0xdfa1f2025a706d2fULL, 128, 103, 74,
     0xa495113a94090adaULL, 0xb39c6ba3f53c144aULL},
    {7, 64, 10, 0xd8dcd1deb7f1f493ULL, 896, 588, 421,
     0x2e4d875ee64a631fULL, 0xa223672b0fa0c3c2ULL},
    {9, 64, 10, 0xf23ed0c5857db0b6ULL, 1152, 858, 537,
     0x7733b985bf2bee53ULL, 0xabaf077632f3dc97ULL},
    {32, 64, 10, 0xd5c2fcfdf5bdb684ULL, 4096, 2742, 1967,
     0x8cbebe25b84380a4ULL, 0x35bcb0863078f40cULL},
    {1, 100, 37, 0x4aaedfd3ec2f965cULL, 740, 491, 277,
     0xd6cd03e74905588eULL, 0x631d59ddfcdb8049ULL},
    {7, 100, 37, 0xc66f71ae30b8eddaULL, 5180, 3435, 2495,
     0xc8cb23e45d6efd60ULL, 0x476a83cd50b0c527ULL},
    {9, 100, 37, 0x590ed49ad43196e1ULL, 6660, 4374, 3272,
     0x223219487ea50fbbULL, 0x24879aa7747c7f74ULL},
    {32, 100, 37, 0xe8eca6b3c3ec8f64ULL, 23680, 15856, 11994,
     0x01f870c6548f7cd6ULL, 0x84444dd333d9373cULL},
};

TEST(SparseFcGolden, StepBitsAndTalliesMatchGoldens)
{
    // Density 0.2 weights, ReLU zeros in x (negatives clamped), a third
    // of dy zero. A mismatch prints the row as it should read.
    SimdLevelGuard guard;
    for (kernels::SimdLevel level : simdLevels()) {
        kernels::setSimdLevel(level);
        for (const FcGolden &g : kFcGoldens) {
            const uint64_t seed =
                static_cast<uint64_t>(g.n * 1000003 + g.in * 1009 + g.out);
            const Tensor w = maskedMatrix(g.out, g.in, 0.2, seed);
            Tensor x = operand(g.n, g.in, seed + 11, 0.0);
            for (int64_t i = 0; i < x.numel(); ++i)
                x.at(i) = std::max(x.at(i), 0.0f);
            const Tensor dy = operand(g.n, g.out, seed + 13, 1.0 / 3.0);
            const FcStep s = runSparse(w, Tensor(), x, dy);
            const FcGolden got{g.n,         g.in,        g.out,
                               bitsHash(s.dx), s.fw,     s.bwd,
                               s.bww,       bitsHash(s.y), bitsHash(s.dw)};
            char row[256];
            std::snprintf(row, sizeof(row),
                          "{%" PRId64 ", %" PRId64 ", %" PRId64
                          ", 0x%016" PRIx64 "ULL, %" PRId64 ", %" PRId64
                          ", %" PRId64 ", 0x%016" PRIx64
                          "ULL, 0x%016" PRIx64 "ULL},",
                          got.n, got.in, got.out, got.dx, got.fw, got.bwd,
                          got.bww, got.y, got.dw);
            const std::string tag =
                std::string(kernels::simdLevelName(level)) + " " + row;
            EXPECT_EQ(got.dx, g.dx) << tag;
            EXPECT_EQ(got.fw, g.fw) << tag;
            EXPECT_EQ(got.bwd, g.bwd) << tag;
            EXPECT_EQ(got.bww, g.bww) << tag;
            EXPECT_EQ(got.y, g.y) << tag;
            EXPECT_EQ(got.dw, g.dw) << tag;
        }
    }
}

} // namespace
} // namespace procrustes
