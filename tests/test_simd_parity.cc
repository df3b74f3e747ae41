/**
 * @file
 * Bitwise parity tests between the scalar and AVX2 sparse microkernel
 * levels (kernels/sparse_microkernels.h), driven through the three CSB
 * conv executors they serve (fc runs on them as a 1x1 conv; its sweep
 * is in tests/test_sparse_fc.cc). The SIMD kernels' contract is
 * *bitwise* equality with the scalar reference — not closeness — so
 * every comparison here is an exact memcmp over the output bits plus
 * exact equality of the executed-MAC tallies. Shapes are deliberately
 * ragged (output widths that are not multiples of 8) so the masked
 * tails are always exercised.
 *
 * All AVX2-dependent tests skip on hosts/builds without AVX2; the
 * scalar level is what the rest of the suite runs in that case.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "kernels/sparse_microkernels.h"
#include "sparse/mask.h"
#include "sparse/sparse_conv.h"

namespace procrustes {
namespace sparse {
namespace {

/** Restores the dispatch level active at construction on exit. */
struct SimdLevelGuard
{
    kernels::SimdLevel saved = kernels::activeSimdLevel();
    ~SimdLevelGuard() { kernels::setSimdLevel(saved); }
};

/** Restores the process-wide pool to its env-resolved size on exit. */
struct GlobalPoolGuard
{
    ~GlobalPoolGuard() { ThreadPool::resetGlobal(0); }
};

/** Exact bit equality — distinguishes +0 from -0, unlike maxAbsDiff. */
bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(std::as_const(a).data(), std::as_const(b).data(),
                       sizeof(float) * a.numel()) == 0;
}

/** Masked random filters at a given density. */
Tensor
maskedFilters(int64_t k, int64_t c, int64_t kernel, double density,
              uint64_t seed)
{
    Xorshift128Plus rng(seed);
    Tensor w(Shape{k, c, kernel, kernel});
    w.fillGaussian(rng, 0.5f);
    if (density >= 1.0)
        return w;
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

/** Everything the three conv executors produce for one input. */
struct ConvRun
{
    Tensor y, dx, dw;
    int64_t fw = -1, bwd = -1, bww = -1;
};

ConvRun
runConvPhases(const Tensor &w, const Tensor &x, const Tensor &dy,
              int64_t stride, int64_t pad)
{
    const CsbTensor csb = CsbTensor::encodeConvFilters(w);
    const Shape &xs = x.shape();
    const ConvTapPack pack = packConvTaps(csb, xs[2], xs[3], stride, pad);
    ConvRun out;
    out.y = sparseConvForward(x, csb, stride, pad, &out.fw, &pack);
    out.dx = sparseConvBackwardData(dy, csb, xs, stride, pad, &out.bwd,
                                    &pack);
    out.dw = Tensor(w.shape());
    sparseConvBackwardWeights(x, dy, csb, stride, pad, &out.dw,
                              &out.bww, &pack);
    return out;
}

struct ParityCase
{
    double density;
};

class SimdParity : public ::testing::TestWithParam<ParityCase>
{
  protected:
    void
    SetUp() override
    {
        if (!kernels::avx2Supported())
            GTEST_SKIP() << "no AVX2 on this build/host";
    }
};

TEST_P(SimdParity, ConvPhasesBitwiseEqualScalarOnRaggedShapes)
{
    SimdLevelGuard guard;
    const double density = GetParam().density;

    // Three ragged geometries: q_ext = 11 (8 + 3 tail) at stride 1,
    // q_ext = 7 (tail-only) at stride 2, and a 5x5 kernel at stride 3
    // whose width is not a multiple of the stride (dx phase planes of 5
    // and 4 columns, q_ext = 5).
    struct Geom
    {
        int64_t c, k, kernel, h, w, stride, pad;
    };
    const Geom geoms[] = {{3, 5, 3, 9, 11, 1, 1},
                          {4, 6, 3, 10, 13, 2, 1},
                          {3, 4, 5, 11, 14, 3, 2}};
    uint64_t seed = 1000;
    for (const Geom &g : geoms) {
        const Tensor w =
            maskedFilters(g.k, g.c, g.kernel, density, ++seed);
        Xorshift128Plus rng(seed * 3);
        Tensor x(Shape{2, g.c, g.h, g.w});
        x.fillGaussian(rng, 1.0f);
        zeroSome(&x, seed * 5, 0.5);
        const int64_t p_ext = (g.h + 2 * g.pad - g.kernel) / g.stride + 1;
        const int64_t q_ext = (g.w + 2 * g.pad - g.kernel) / g.stride + 1;
        Tensor dy(Shape{2, g.k, p_ext, q_ext});
        dy.fillGaussian(rng, 1.0f);
        zeroSome(&dy, seed * 7, 0.5);

        kernels::setSimdLevel(kernels::SimdLevel::kScalar);
        const ConvRun ref = runConvPhases(w, x, dy, g.stride, g.pad);
        kernels::setSimdLevel(kernels::SimdLevel::kAvx2);
        const ConvRun got = runConvPhases(w, x, dy, g.stride, g.pad);

        EXPECT_TRUE(bitwiseEqual(got.y, ref.y))
            << "y density=" << density << " W=" << g.w;
        EXPECT_TRUE(bitwiseEqual(got.dx, ref.dx))
            << "dx density=" << density << " W=" << g.w;
        EXPECT_TRUE(bitwiseEqual(got.dw, ref.dw))
            << "dw density=" << density << " W=" << g.w;
        EXPECT_EQ(got.fw, ref.fw);
        EXPECT_EQ(got.bwd, ref.bwd);
        EXPECT_EQ(got.bww, ref.bww);
    }
}

// 0%, 50%, 80%, and 95% weight sparsity.
INSTANTIATE_TEST_SUITE_P(Densities, SimdParity,
                         ::testing::Values(ParityCase{1.0},
                                           ParityCase{0.5},
                                           ParityCase{0.2},
                                           ParityCase{0.05}));

TEST(SimdParityThreads, Avx2ExecutorsBitwiseInvariantAcrossThreadCounts)
{
    // The AVX2 level must be thread-count invariant on its own terms:
    // the parallelFor chunk boundaries move with the pool size, so this
    // catches any arithmetic that depends on the partition.
    if (!kernels::avx2Supported())
        GTEST_SKIP() << "no AVX2 on this build/host";
    SimdLevelGuard simd_guard;
    GlobalPoolGuard pool_guard;
    kernels::setSimdLevel(kernels::SimdLevel::kAvx2);

    const Tensor wc = maskedFilters(5, 3, 3, 0.3, 3003);
    Xorshift128Plus rng(3005);
    Tensor xc(Shape{3, 3, 9, 11});
    xc.fillGaussian(rng, 1.0f);
    Tensor dyc(Shape{3, 5, 9, 11});
    dyc.fillGaussian(rng, 1.0f);
    zeroSome(&dyc, 3013, 0.5);

    ConvRun ref;
    for (int threads : {1, 2, 3, 8}) {
        ThreadPool::resetGlobal(threads);
        const ConvRun conv = runConvPhases(wc, xc, dyc, 1, 1);
        if (threads == 1) {
            ref = conv;
            continue;
        }
        EXPECT_TRUE(bitwiseEqual(conv.y, ref.y)) << threads;
        EXPECT_TRUE(bitwiseEqual(conv.dx, ref.dx)) << threads;
        EXPECT_TRUE(bitwiseEqual(conv.dw, ref.dw)) << threads;
    }
}

/**
 * The prepared-plane fill both the forward and backward-weight read:
 * the scalar loop and the AVX2 body must write the same bits, every
 * source float at its padded, phase-split place (NaN payloads, -0 and
 * infinities moved, not computed) and +0 in every halo slot, and
 * nothing past the plane. Strides 1..3 x pads 0..2 over widths below
 * 8, not a multiple of 8, and more than one 16-float step.
 */
TEST(SimdParityFill, PlaneFillsBitwiseEqualAndZeroOnlyTheHalo)
{
    SimdLevelGuard guard;
    std::vector<kernels::SimdLevel> levels = {kernels::SimdLevel::kScalar};
    if (kernels::avx2Supported())
        levels.push_back(kernels::SimdLevel::kAvx2);
    const uint32_t specials[] = {0x80000000u, 0x7fc00001u, 0xffc12345u,
                                 0x7f800000u, 0xff800000u};
    const uint32_t canary = 0x5a5a5a5au;
    const int64_t h = 3;
    Xorshift128Plus rng(4242);
    for (int64_t stride = 1; stride <= 3; ++stride) {
        for (int64_t pad = 0; pad <= 2; ++pad) {
            for (const int64_t width : {1, 2, 3, 5, 7, 13, 16, 17, 31, 35}) {
                std::vector<uint32_t> src(static_cast<size_t>(h * width));
                for (size_t i = 0; i < src.size(); ++i)
                    src[i] = i % 3 == 0 ? specials[i / 3 % 5]
                                        : static_cast<uint32_t>(rng.next());
                const int64_t slots = (width + 2 * pad + stride - 1) / stride;
                const int64_t row = slots * stride;
                const size_t plane =
                    static_cast<size_t>((h + 2 * pad) * row);
                std::vector<uint32_t> ref;
                for (const kernels::SimdLevel level : levels) {
                    kernels::setSimdLevel(level);
                    std::vector<uint32_t> dst(plane + 8, canary);
                    kernels::padPhaseSplitPlane(
                        reinterpret_cast<const float *>(src.data()), h,
                        width, stride, pad, slots,
                        reinterpret_cast<float *>(dst.data()));
                    const std::string where =
                        "stride=" + std::to_string(stride) +
                        " pad=" + std::to_string(pad) +
                        " width=" + std::to_string(width) +
                        " simd=" + kernels::simdLevelName(level);
                    for (size_t i = 0; i < plane; ++i) {
                        const int64_t r = static_cast<int64_t>(i) / row - pad;
                        const int64_t in_row = static_cast<int64_t>(i) % row;
                        const int64_t col =
                            in_row % slots * stride + in_row / slots - pad;
                        const bool inside =
                            r >= 0 && r < h && col >= 0 && col < width;
                        const uint32_t want =
                            inside ? src[static_cast<size_t>(r * width + col)]
                                   : 0u;
                        ASSERT_EQ(dst[i], want) << where << " at " << i;
                    }
                    for (size_t i = plane; i < dst.size(); ++i)
                        ASSERT_EQ(dst[i], canary) << where << " past the plane";
                    if (ref.empty())
                        ref = dst;
                    EXPECT_EQ(dst, ref) << where;
                }
            }
        }
    }
}

TEST(SimdDispatch, LevelNameAndOverrideRoundTrip)
{
    SimdLevelGuard guard;
    EXPECT_STREQ(kernels::simdLevelName(kernels::SimdLevel::kScalar),
                 "scalar");
    EXPECT_STREQ(kernels::simdLevelName(kernels::SimdLevel::kAvx2),
                 "avx2");
    kernels::setSimdLevel(kernels::SimdLevel::kScalar);
    EXPECT_EQ(kernels::activeSimdLevel(), kernels::SimdLevel::kScalar);
    if (kernels::avx2Supported()) {
        kernels::setSimdLevel(kernels::SimdLevel::kAvx2);
        EXPECT_EQ(kernels::activeSimdLevel(),
                  kernels::SimdLevel::kAvx2);
    }
}

} // namespace
} // namespace sparse
} // namespace procrustes
