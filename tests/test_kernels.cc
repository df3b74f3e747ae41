/**
 * @file
 * Tests for the fast compute backend: the blocked GEMM, the im2col
 * lowering, the thread pool, copy-on-write tensor storage, and — most
 * importantly — parity between the naive and GEMM conv/linear backends
 * (forward, dx, dW, db) across strides, paddings, and odd shapes, plus
 * bitwise determinism under multi-threading.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "brute_force_macs.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "kernels/backend.h"
#include "kernels/conv_kernels.h"
#include "kernels/gemm.h"
#include "kernels/im2col.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "sparse/csb.h"
#include "sparse/sparse_conv.h"

namespace procrustes {
namespace {

using kernels::KernelBackend;

// ---------------------------------------------------------------- GEMM

/** Reference triple loop: c (+)= a * b. */
void
naiveGemm(int64_t m, int64_t n, int64_t k, const float *a, const float *b,
          float *c, bool accumulate)
{
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            float acc = accumulate ? c[i * n + j] : 0.0f;
            for (int64_t p = 0; p < k; ++p)
                acc += a[i * k + p] * b[p * n + j];
            c[i * n + j] = acc;
        }
    }
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemmShapes, MatchesNaiveTripleLoop)
{
    const auto [m, n, k] = GetParam();
    Xorshift128Plus rng(17);
    std::vector<float> a(static_cast<size_t>(m * k));
    std::vector<float> b(static_cast<size_t>(k * n));
    std::vector<float> c(static_cast<size_t>(m * n), 0.5f);
    std::vector<float> ref = c;
    for (auto &v : a)
        v = static_cast<float>(rng.nextGaussian());
    for (auto &v : b)
        v = static_cast<float>(rng.nextGaussian());

    // Every C element is one multiply-add fold over k in k order, from
    // 0 or from C, exactly as the triple loop writes it: blocking and
    // tiling never reorder it, so the bits must match.
    for (bool accumulate : {false, true}) {
        kernels::gemm(m, n, k, a.data(), b.data(), c.data(), accumulate);
        naiveGemm(m, n, k, a.data(), b.data(), ref.data(), accumulate);
        for (size_t i = 0; i < c.size(); ++i)
            ASSERT_EQ(c[i], ref[i]) << "acc=" << accumulate << " i=" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(4, 16, 8),
                      std::make_tuple(5, 17, 3), std::make_tuple(7, 19, 23),
                      std::make_tuple(64, 64, 64),
                      std::make_tuple(3, 100, 300),
                      std::make_tuple(130, 33, 71),
                      // conv1's forward, backward-data and dW shapes:
                      // k = 1024 crosses the 256-deep k-slabs.
                      std::make_tuple(16, 1024, 27),
                      std::make_tuple(27, 1024, 16),
                      std::make_tuple(27, 16, 1024)));

TEST(Gemm, ThreadCountInvariant)
{
    // m values chosen so naive chunking would split a 4-row micro-tile
    // (e.g. m=70 on 2 threads gives 9-row panels without grain
    // rounding); chunk sizes are grain-aligned precisely so every
    // output row lands in the same micro-kernel for any thread count.
    for (int64_t m : {8, 61, 70, 130}) {
        const int64_t n = 47, k = 129;
        Xorshift128Plus rng(23);
        std::vector<float> a(static_cast<size_t>(m * k));
        std::vector<float> b(static_cast<size_t>(k * n));
        for (auto &v : a)
            v = static_cast<float>(rng.nextGaussian());
        for (auto &v : b)
            v = static_cast<float>(rng.nextGaussian());

        std::vector<float> ref(static_cast<size_t>(m * n));
        kernels::gemm(m, n, k, a.data(), k, b.data(), n, ref.data(), n,
                      /*accumulate=*/false, nullptr);
        for (int threads : {1, 2, 3, 4}) {
            ThreadPool pool(threads);
            std::vector<float> c(static_cast<size_t>(m * n));
            kernels::gemm(m, n, k, a.data(), k, b.data(), n, c.data(),
                          n, /*accumulate=*/false, &pool);
            // Row panels partition C on tile boundaries, so the
            // reduction order per element is identical: results must
            // match bitwise, not just approximately.
            for (size_t i = 0; i < c.size(); ++i)
                ASSERT_EQ(c[i], ref[i])
                    << "m=" << m << " threads=" << threads << " i=" << i;
        }
    }
}

TEST(Transpose, RoundTrip)
{
    const int64_t rows = 37, cols = 53;
    Xorshift128Plus rng(31);
    std::vector<float> a(static_cast<size_t>(rows * cols));
    for (auto &v : a)
        v = static_cast<float>(rng.nextGaussian());
    std::vector<float> at(a.size());
    std::vector<float> back(a.size());
    kernels::transpose(a.data(), rows, cols, at.data());
    for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = 0; j < cols; ++j)
            ASSERT_EQ(at[static_cast<size_t>(j * rows + i)],
                      a[static_cast<size_t>(i * cols + j)]);
    }
    kernels::transpose(at.data(), cols, rows, back.data());
    EXPECT_EQ(a, back);
}

// --------------------------------------------------------- thread pool

TEST(ThreadPool, CoversRangeExactlyOnce)
{
    ThreadPool pool(4);
    const int64_t n = 10000;
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    pool.parallelFor(0, n, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i)
            hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (int64_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
}

TEST(ThreadPool, EmptyAndTinyRanges)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(5, 5, [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    std::atomic<int64_t> sum{0};
    pool.parallelFor(0, 3, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i)
            sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), 3);
}

TEST(ThreadPool, NestedCallRunsInline)
{
    ThreadPool pool(4);
    std::atomic<int64_t> total{0};
    pool.parallelFor(0, 8, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
            // Nested submission must not deadlock; it runs serially.
            pool.parallelFor(0, 4, [&](int64_t b2, int64_t e2) {
                total.fetch_add(e2 - b2);
            });
        }
    });
    EXPECT_EQ(total.load(), 8 * 4);
}

TEST(ThreadPool, ConcurrentSubmittersDegradeToSerial)
{
    // Two application threads sharing one pool: the loser of the
    // submission race runs inline instead of aborting or deadlocking.
    ThreadPool pool(4);
    std::atomic<int64_t> sum{0};
    auto submit = [&] {
        for (int iter = 0; iter < 20; ++iter) {
            pool.parallelFor(0, 1000, [&](int64_t b, int64_t e) {
                for (int64_t i = b; i < e; ++i)
                    sum.fetch_add(1);
            });
        }
    };
    std::thread t1(submit);
    std::thread t2(submit);
    t1.join();
    t2.join();
    EXPECT_EQ(sum.load(), 2 * 20 * 1000);
}

TEST(ThreadPool, ReusableAcrossJobs)
{
    ThreadPool pool(3);
    for (int iter = 0; iter < 50; ++iter) {
        std::atomic<int64_t> sum{0};
        pool.parallelFor(0, 100, [&](int64_t b, int64_t e) {
            for (int64_t i = b; i < e; ++i)
                sum.fetch_add(i);
        });
        ASSERT_EQ(sum.load(), 4950);
    }
}

// ------------------------------------------------- copy-on-write tensor

TEST(TensorCow, CopySharesUntilWrite)
{
    Tensor a(Shape{2, 3});
    a.fill(1.0f);
    Tensor b = a;
    const Tensor &ca = a;
    const Tensor &cb = b;
    // Copy is O(1): both views alias one buffer.
    EXPECT_EQ(ca.data(), cb.data());
    EXPECT_TRUE(a.sharesStorage());

    b.at(0) = 7.0f;   // write detaches b only
    EXPECT_NE(ca.data(), cb.data());
    EXPECT_FLOAT_EQ(a.at(0), 1.0f);
    EXPECT_FLOAT_EQ(b.at(0), 7.0f);
    EXPECT_FALSE(a.sharesStorage());
}

TEST(TensorCow, CachedInputSurvivesCallerMutation)
{
    // The Conv2d caching pattern: layer keeps a COW alias, caller then
    // mutates its tensor; the cached values must be unaffected.
    Tensor x(Shape{4});
    for (int i = 0; i < 4; ++i)
        x.at(i) = static_cast<float>(i);
    Tensor cached = x;
    x.fill(-1.0f);
    for (int i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(cached.at(i), static_cast<float>(i));
}

// ------------------------------------------- conv backend parity suite

struct ParityCase
{
    int64_t n, c, h, w, k, kernel, stride, pad;
    bool bias;
};

/** Random conv pair (naive + gemm) with identical weights. */
struct ConvPair
{
    nn::Conv2d naive;
    nn::Conv2d gemm;

    explicit ConvPair(const ParityCase &pc)
        : naive(makeCfg(pc), "naive"), gemm(makeCfg(pc), "gemm")
    {
        naive.setBackend(KernelBackend::kNaive);
        gemm.setBackend(KernelBackend::kGemm);
        Xorshift128Plus rng(7);
        naive.weight().value.fillGaussian(rng, 0.5f);
        gemm.weight().value = naive.weight().value;
        if (pc.bias) {
            naive.bias().value.fillGaussian(rng, 0.5f);
            gemm.bias().value = naive.bias().value;
        }
    }

    static nn::Conv2dConfig
    makeCfg(const ParityCase &pc)
    {
        nn::Conv2dConfig cfg;
        cfg.inChannels = pc.c;
        cfg.outChannels = pc.k;
        cfg.kernel = pc.kernel;
        cfg.stride = pc.stride;
        cfg.pad = pc.pad;
        cfg.bias = pc.bias;
        return cfg;
    }
};

class ConvBackendParity : public ::testing::TestWithParam<ParityCase>
{
};

TEST_P(ConvBackendParity, ForwardAndAllGradientsMatch)
{
    const ParityCase pc = GetParam();
    ConvPair pair(pc);

    Xorshift128Plus rng(11);
    Tensor x(Shape{pc.n, pc.c, pc.h, pc.w});
    x.fillGaussian(rng, 1.0f);

    const Tensor y_naive = pair.naive.forward(x, true);
    const Tensor y_gemm = pair.gemm.forward(x, true);
    ASSERT_EQ(y_naive.shape(), y_gemm.shape());
    EXPECT_LT(maxAbsDiff(y_naive, y_gemm), 1e-4f);

    Tensor dy(y_naive.shape());
    dy.fillGaussian(rng, 1.0f);
    const Tensor dx_naive = pair.naive.backward(dy);
    const Tensor dx_gemm = pair.gemm.backward(dy);
    ASSERT_EQ(dx_naive.shape(), dx_gemm.shape());
    EXPECT_LT(maxAbsDiff(dx_naive, dx_gemm), 1e-4f);
    EXPECT_LT(maxAbsDiff(pair.naive.weight().grad,
                         pair.gemm.weight().grad),
              1e-4f);
    if (pc.bias) {
        EXPECT_LT(maxAbsDiff(pair.naive.bias().grad,
                             pair.gemm.bias().grad),
                  1e-4f);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvBackendParity,
    ::testing::Values(
        ParityCase{2, 3, 8, 8, 5, 3, 1, 1, true},     // basic 3x3
        ParityCase{1, 1, 5, 5, 1, 3, 1, 0, false},    // no padding
        ParityCase{2, 4, 9, 9, 6, 3, 2, 1, true},     // stride 2
        ParityCase{1, 2, 7, 9, 3, 3, 1, 1, true},     // non-square input
        ParityCase{2, 3, 6, 6, 4, 1, 1, 0, true},     // 1x1 kernel
        ParityCase{1, 2, 11, 7, 3, 5, 2, 2, false},   // 5x5, stride 2
        ParityCase{3, 5, 10, 6, 7, 3, 3, 1, true},    // stride 3, odd chans
        ParityCase{1, 1, 4, 4, 2, 3, 1, 2, true}));   // pad > 1

TEST(ConvBackendParity, RepeatedBackwardAccumulatesIdentically)
{
    // Two backward passes without zeroing must accumulate the same way
    // on both backends (Param::grad is +=, never overwritten).
    const ParityCase pc{2, 3, 8, 8, 4, 3, 1, 1, true};
    ConvPair pair(pc);
    Xorshift128Plus rng(13);
    Tensor x(Shape{pc.n, pc.c, pc.h, pc.w});
    x.fillGaussian(rng, 1.0f);
    Tensor dy(Shape{pc.n, pc.k, 8, 8});
    dy.fillGaussian(rng, 1.0f);
    for (int pass = 0; pass < 2; ++pass) {
        pair.naive.forward(x, true);
        pair.gemm.forward(x, true);
        pair.naive.backward(dy);
        pair.gemm.backward(dy);
    }
    EXPECT_LT(maxAbsDiff(pair.naive.weight().grad,
                         pair.gemm.weight().grad),
              2e-4f);
}

TEST(ConvBackendParity, GemmBackendIsDeterministic)
{
    // Same inputs twice through the threaded GEMM backend must agree
    // bitwise (maxAbsDiff exactly zero), not just to tolerance.
    const ParityCase pc{2, 8, 12, 12, 16, 3, 1, 1, true};
    ConvPair run1(pc);
    ConvPair run2(pc);
    Xorshift128Plus rng(19);
    Tensor x(Shape{pc.n, pc.c, pc.h, pc.w});
    x.fillGaussian(rng, 1.0f);
    Tensor dy(Shape{pc.n, pc.k, 12, 12});
    dy.fillGaussian(rng, 1.0f);

    const Tensor y1 = run1.gemm.forward(x, true);
    const Tensor y2 = run2.gemm.forward(x, true);
    EXPECT_EQ(maxAbsDiff(y1, y2), 0.0f);
    const Tensor dx1 = run1.gemm.backward(dy);
    const Tensor dx2 = run2.gemm.backward(dy);
    EXPECT_EQ(maxAbsDiff(dx1, dx2), 0.0f);
    EXPECT_EQ(maxAbsDiff(run1.gemm.weight().grad,
                         run2.gemm.weight().grad),
              0.0f);
}

// ----------------------------------------------- linear backend parity

TEST(LinearBackendParity, ForwardAndGradientsMatch)
{
    nn::Linear naive(37, 23, "n");
    nn::Linear gemm(37, 23, "g");
    naive.setBackend(KernelBackend::kNaive);
    gemm.setBackend(KernelBackend::kGemm);
    Xorshift128Plus rng(29);
    naive.weight().value.fillGaussian(rng, 0.5f);
    gemm.weight().value = naive.weight().value;
    naive.bias().value.fillGaussian(rng, 0.5f);
    gemm.bias().value = naive.bias().value;

    Tensor x(Shape{9, 37});
    x.fillGaussian(rng, 1.0f);
    const Tensor y_naive = naive.forward(x, true);
    const Tensor y_gemm = gemm.forward(x, true);
    EXPECT_LT(maxAbsDiff(y_naive, y_gemm), 1e-4f);

    Tensor dy(y_naive.shape());
    dy.fillGaussian(rng, 1.0f);
    const Tensor dx_naive = naive.backward(dy);
    const Tensor dx_gemm = gemm.backward(dy);
    EXPECT_LT(maxAbsDiff(dx_naive, dx_gemm), 1e-4f);
    EXPECT_LT(maxAbsDiff(naive.weight().grad, gemm.weight().grad), 1e-4f);
    EXPECT_LT(maxAbsDiff(naive.bias().grad, gemm.bias().grad), 1e-4f);
}

// ------------------------------------------------------ im2col lowering

TEST(Im2col, Col2imIsAdjointOfIm2col)
{
    // <im2col(x), c> == <x, col2im(c)> for random x, c — the defining
    // property that makes the GEMM backward pass correct.
    const kernels::ConvGeom g = kernels::makeConvGeom(
        /*c=*/2, /*h=*/7, /*w=*/6, /*k=*/1, /*r=*/3, /*s=*/3,
        /*stride=*/2, /*pad=*/1);
    Xorshift128Plus rng(37);
    const int64_t xelems = g.c * g.h * g.w;
    const int64_t celems = g.colRows() * g.colCols();
    std::vector<float> x(static_cast<size_t>(xelems));
    std::vector<float> c(static_cast<size_t>(celems));
    for (auto &v : x)
        v = static_cast<float>(rng.nextGaussian());
    for (auto &v : c)
        v = static_cast<float>(rng.nextGaussian());

    std::vector<float> col(static_cast<size_t>(celems));
    kernels::im2col(x.data(), g, col.data());
    double lhs = 0.0;
    for (int64_t i = 0; i < celems; ++i)
        lhs += static_cast<double>(col[static_cast<size_t>(i)]) *
               c[static_cast<size_t>(i)];

    std::vector<float> back(static_cast<size_t>(xelems), 0.0f);
    kernels::col2im(c.data(), g, back.data());
    double rhs = 0.0;
    for (int64_t i = 0; i < xelems; ++i)
        rhs += static_cast<double>(back[static_cast<size_t>(i)]) *
               x[static_cast<size_t>(i)];
    EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2col, RejectsKernelLargerThanPaddedInput)
{
    // h + 2*pad - r = -1 would truncate to output extent 1 instead of
    // the mathematically empty 0; the geometry must be rejected.
    EXPECT_DEATH(kernels::makeConvGeom(/*c=*/1, /*h=*/2, /*w=*/2,
                                       /*k=*/1, /*r=*/3, /*s=*/3,
                                       /*stride=*/2, /*pad=*/0),
                 "larger than padded input");
}

// --------------------------------------------------- exact sparse MACs

TEST(SparseConvMacs, ExactlyCountsInBoundsMacs)
{
    // Dense 3x3 kernel on a 4x4 input with pad 1: each spatial tap
    // fires for 3/4/3 valid rows x 3/4/3 valid cols = 100 MACs, not
    // the 9 * 16 = 144 interior upper bound.
    Tensor w(Shape{1, 1, 3, 3});
    w.fill(1.0f);
    const sparse::CsbTensor csb = sparse::CsbTensor::encodeConvFilters(w);
    Tensor x(Shape{1, 1, 4, 4});
    int64_t macs = -1;
    sparse::sparseConvForward(x, csb, 1, 1, &macs);
    EXPECT_EQ(macs, 100);
}

TEST(SparseConvMacs, MatchesBruteForceCount)
{
    Xorshift128Plus rng(41);
    Tensor w(Shape{3, 2, 3, 3});
    w.fillGaussian(rng, 1.0f);
    // Zero out ~half the taps.
    for (int64_t i = 0; i < w.numel(); ++i) {
        if (rng.nextFloat() < 0.5f)
            w.at(i) = 0.0f;
    }
    const sparse::CsbTensor csb = sparse::CsbTensor::encodeConvFilters(w);

    const int64_t n = 2, h = 6, width = 5, stride = 2, pad = 1;
    const Tensor x(Shape{n, 2, h, width});
    int64_t macs = -1;
    const Tensor y = sparse::sparseConvForward(x, csb, stride, pad, &macs);
    EXPECT_EQ(macs, bruteForceConvMacs(w, x, Tensor(y.shape()), stride, pad)
                        .forward);
}

// --------------------------------------- thread-count determinism sweep

/** Restores the process-wide pool to its env-resolved size on exit. */
struct GlobalPoolGuard
{
    ~GlobalPoolGuard() { ThreadPool::resetGlobal(0); }
};

/** Everything one training step produces, for bitwise comparison. */
struct StepResult
{
    Tensor y, dx, dw, db;          // dense gemm backend
    Tensor sy, sdx, sdw, sdb;      // CSB sparse backend
};

/**
 * One dense-gemm + one CSB-sparse Conv2d training step on fixed seeds
 * at the current global pool size. Batch 5 straddles the dispatch
 * boundary: batch-parallel at 1-3 threads, GEMM-row-panel at 8 — the
 * sweep asserts the decompositions agree bit for bit.
 */
StepResult
runTrainingStep()
{
    nn::Conv2dConfig cfg;
    cfg.inChannels = 4;
    cfg.outChannels = 10;
    cfg.kernel = 3;
    cfg.stride = 1;
    cfg.pad = 1;
    cfg.bias = true;

    StepResult out;
    Xorshift128Plus rng(71);
    Tensor x(Shape{5, 4, 9, 9});
    x.fillGaussian(rng, 1.0f);
    Tensor dy(Shape{5, 10, 9, 9});
    dy.fillGaussian(rng, 1.0f);

    nn::Conv2d dense(cfg, "dense");
    dense.setBackend(KernelBackend::kGemm);
    Xorshift128Plus wrng(73);
    dense.weight().value.fillGaussian(wrng, 0.5f);
    dense.bias().value.fillGaussian(wrng, 0.5f);
    out.y = dense.forward(x, true);
    out.dx = dense.backward(dy);
    out.dw = dense.weight().grad;
    out.db = dense.bias().grad;

    nn::Conv2d sparse(cfg, "sparse");
    sparse.setBackend(KernelBackend::kSparse);
    sparse.weight().value = dense.weight().value;
    sparse.bias().value = dense.bias().value;
    // Prune ~70% so the CSB executors actually skip blocks and taps.
    Xorshift128Plus prng(79);
    for (int64_t i = 0; i < sparse.weight().value.numel(); ++i) {
        if (prng.nextFloat() < 0.7f)
            sparse.weight().value.at(i) = 0.0f;
    }
    out.sy = sparse.forward(x, true);
    out.sdx = sparse.backward(dy);
    out.sdw = sparse.weight().grad;
    out.sdb = sparse.bias().grad;
    return out;
}

TEST(ThreadSweep, TrainingStepBitwiseIdenticalAcrossThreadCounts)
{
    GlobalPoolGuard guard;
    ThreadPool::resetGlobal(1);
    const StepResult ref = runTrainingStep();

    for (int threads : {2, 3, 8}) {
        ThreadPool::resetGlobal(threads);
        ASSERT_EQ(ThreadPool::global().numThreads(), threads);
        const StepResult got = runTrainingStep();
        EXPECT_EQ(maxAbsDiff(got.y, ref.y), 0.0f) << threads;
        EXPECT_EQ(maxAbsDiff(got.dx, ref.dx), 0.0f) << threads;
        EXPECT_EQ(maxAbsDiff(got.dw, ref.dw), 0.0f) << threads;
        EXPECT_EQ(maxAbsDiff(got.db, ref.db), 0.0f) << threads;
        EXPECT_EQ(maxAbsDiff(got.sy, ref.sy), 0.0f) << threads;
        EXPECT_EQ(maxAbsDiff(got.sdx, ref.sdx), 0.0f) << threads;
        EXPECT_EQ(maxAbsDiff(got.sdw, ref.sdw), 0.0f) << threads;
        EXPECT_EQ(maxAbsDiff(got.sdb, ref.sdb), 0.0f) << threads;
    }
}

TEST(ThreadSweep, WideBatchGemmConvBitwiseIdentical)
{
    // Batch 16 stays batch-parallel at every swept size; stride 2 and
    // asymmetric spatial extents exercise the scratch sizing.
    GlobalPoolGuard guard;
    nn::Conv2dConfig cfg;
    cfg.inChannels = 3;
    cfg.outChannels = 6;
    cfg.kernel = 3;
    cfg.stride = 2;
    cfg.pad = 1;
    cfg.bias = true;

    Xorshift128Plus rng(83);
    Tensor x(Shape{16, 3, 11, 7});
    x.fillGaussian(rng, 1.0f);

    Tensor ref_y, ref_dx, ref_dw, ref_db, dy;
    for (int threads : {1, 2, 3, 8}) {
        ThreadPool::resetGlobal(threads);
        nn::Conv2d conv(cfg, "conv");
        conv.setBackend(KernelBackend::kGemm);
        Xorshift128Plus wrng(89);
        conv.weight().value.fillGaussian(wrng, 0.5f);
        conv.bias().value.fillGaussian(wrng, 0.5f);
        const Tensor y = conv.forward(x, true);
        if (threads == 1) {
            dy = Tensor(y.shape());
            Xorshift128Plus drng(97);
            dy.fillGaussian(drng, 1.0f);
        }
        const Tensor dx = conv.backward(dy);
        if (threads == 1) {
            ref_y = y;
            ref_dx = dx;
            ref_dw = conv.weight().grad;
            ref_db = conv.bias().grad;
            continue;
        }
        EXPECT_EQ(maxAbsDiff(y, ref_y), 0.0f) << threads;
        EXPECT_EQ(maxAbsDiff(dx, ref_dx), 0.0f) << threads;
        EXPECT_EQ(maxAbsDiff(conv.weight().grad, ref_dw), 0.0f)
            << threads;
        EXPECT_EQ(maxAbsDiff(conv.bias().grad, ref_db), 0.0f) << threads;
    }
}

// ------------------------------------------------------ gemm conv golden

/** Uniform values in [-0.5, 0.5) from the integer generator only (no
    libm), so the inputs are the same bits on every host. */
Tensor
uniformTensor(const Shape &shape, uint64_t seed)
{
    Xorshift128Plus rng(seed);
    Tensor t(shape);
    for (int64_t i = 0; i < t.numel(); ++i)
        t.at(i) = rng.nextFloat() - 0.5f;
    return t;
}

/** FNV-1a over the bit patterns of t's elements, in index order. */
uint64_t
bitsHash(const Tensor &t)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (int64_t i = 0; i < t.numel(); ++i) {
        uint32_t word;
        std::memcpy(&word, t.data() + i, sizeof(word));
        for (int b = 0; b < 4; ++b) {
            h ^= (word >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

/**
 * True when gemm rounds its multiply-add once, i.e. the compiler fused
 * it into an FMA (-O2 -march=native on an FMA host); the sanitizer
 * builds round the product and the sum separately. (1 + 2^-12)^2 is
 * 1 + 2^-11 + 2^-24: rounded on its own the 2^-24 is a tie that goes
 * to even, so only the fused sum keeps it.
 */
bool
gemmFusesMultiplyAdd()
{
    const float a = 1.0f + 0x1p-12f;
    float c = -(1.0f + 0x1p-11f);
    kernels::gemm(1, 1, 1, &a, &a, &c, /*accumulate=*/true);
    return c != 0.0f;
}

struct GemmGoldenCase
{
    int64_t n, c, k, h, w, kernel, stride, pad;
    bool bias;
    uint64_t fused[4];     //!< y, dx, dW, db digests; db 0 without bias
    uint64_t unfused[4];   //!< the same with a twice-rounded multiply-add
};

/**
 * y, dx, dW and db bits of convForwardGemm / convBackwardGemm. At 4
 * pool threads a batch below 4 takes the row-panel path and a wider
 * one the batch-parallel path; at 1 thread both run serially, and all
 * must give the recorded bits. dW and db start non-zero, so the
 * accumulation into them is pinned too. The last case (K = C = 512,
 * 3x3, batch 8) needs 9 MiB of dW partial per image, so kMaxPartialBytes
 * splits its batch into two groups of 7 and 1 images. The case after it
 * has a 20x20 output plane (pq = 400), so each image's dW fold over pq
 * crosses gemm's 256-deep k-slab.
 */
const GemmGoldenCase kGemmGolden[] = {
    {2, 3, 20, 9, 9, 3, 1, 1, true,
     {0xf857c4aa7094a706ULL, 0xb874341925af61caULL,
      0xab065e502d94f3b5ULL, 0x1298cd9c3437a527ULL},
     {0xeba86bff5b785fe3ULL, 0x2bf7e107eea880dULL,
      0x905476064425623eULL, 0x1298cd9c3437a527ULL}},
    {3, 4, 12, 11, 7, 3, 2, 1, false,
     {0x4ecdcc7662234227ULL, 0x63534f2f7b54e0f7ULL,
      0x29e531a23017efa7ULL, 0},
     {0xd3672b05cafe0490ULL, 0x82a5fa5f215ef42bULL,
      0x3aba1b6dadc5bba0ULL, 0}},
    {6, 3, 8, 10, 10, 5, 2, 2, true,
     {0xfd796318ca9b95bULL, 0x3f7c67f8702121ULL,
      0x3c08b40eb749b80aULL, 0xf649b49c4bf64ceULL},
     {0xac80118cef1be355ULL, 0x74d72b44b0d2daadULL,
      0x7ce1c5c873f39874ULL, 0xf649b49c4bf64ceULL}},
    {9, 5, 7, 8, 8, 1, 1, 0, false,
     {0xde51c61e0574b652ULL, 0xc1ebfd2995a9de8aULL,
      0x2fa6113c81e5db46ULL, 0},
     {0x1c7131752f42b62aULL, 0x253f24dda00f9d5dULL,
      0xcf1603d06a665906ULL, 0}},
    {8, 512, 512, 1, 1, 3, 1, 1, true,
     {0x7e5915deceed2460ULL, 0x8664c6af7c6bd784ULL,
      0xa1a1bacf648c401bULL, 0xebed352f1b99f39dULL},
     {0x7869b339d5511fcfULL, 0x3299e328766f94ecULL,
      0xa1a1bacf648c401bULL, 0xebed352f1b99f39dULL}},
    {2, 3, 16, 20, 20, 3, 1, 1, true,
     {0xde871c78990384eaULL, 0x7d43ee87deed1a2eULL,
      0x3be7154b7a4c8097ULL, 0x926eeb2226b38ae1ULL},
     {0x44de25b190d2228ULL, 0xdf616486a5848c6dULL,
      0x2938e96adf622257ULL, 0x926eeb2226b38ae1ULL}},
};

std::array<uint64_t, 4>
runGemmGolden(const GemmGoldenCase &gc, uint64_t seed)
{
    const Tensor x = uniformTensor(Shape{gc.n, gc.c, gc.h, gc.w}, seed);
    const Tensor w = uniformTensor(
        Shape{gc.k, gc.c, gc.kernel, gc.kernel}, seed + 1);
    const Tensor bias = uniformTensor(Shape{gc.k}, seed + 2);
    const kernels::ConvGeom g =
        kernels::convGeomFromTensors(x, w.shape(), gc.stride, gc.pad);
    const Tensor y =
        kernels::convForwardGemm(x, w, gc.bias ? &bias : nullptr, g);
    const Tensor dy = uniformTensor(y.shape(), seed + 3);
    Tensor dw = uniformTensor(w.shape(), seed + 4);
    Tensor db = uniformTensor(Shape{gc.k}, seed + 5);
    const Tensor dx = kernels::convBackwardGemm(
        x, w, dy, g, &dw, gc.bias ? &db : nullptr);
    return {bitsHash(y), bitsHash(dx), bitsHash(dw),
            gc.bias ? bitsHash(db) : 0};
}

TEST(ConvGemmGolden, ForwardAndGradientBitsMatchRecording)
{
    GlobalPoolGuard guard;
    const bool fused = gemmFusesMultiplyAdd();
    const char *names[4] = {"y", "dx", "dW", "db"};
    for (int threads : {1, 4}) {
        ThreadPool::resetGlobal(threads);
        uint64_t seed = 101;
        for (const GemmGoldenCase &gc : kGemmGolden) {
            const std::array<uint64_t, 4> got = runGemmGolden(gc, seed);
            seed += 10;
            const uint64_t *want = fused ? gc.fused : gc.unfused;
            for (int i = 0; i < 4; ++i) {
                EXPECT_EQ(got[i], want[i])
                    << names[i] << " 0x" << std::hex << got[i] << std::dec
                    << " n=" << gc.n << " c=" << gc.c << " k=" << gc.k
                    << " stride=" << gc.stride << " threads=" << threads
                    << " fused=" << fused;
            }
        }
    }
}

TEST(SparseConv, DeterministicUnderThreading)
{
    Xorshift128Plus rng(43);
    Tensor w(Shape{8, 4, 3, 3});
    w.fillGaussian(rng, 0.5f);
    for (int64_t i = 0; i < w.numel(); ++i) {
        if (rng.nextFloat() < 0.7f)
            w.at(i) = 0.0f;
    }
    const sparse::CsbTensor csb = sparse::CsbTensor::encodeConvFilters(w);
    Tensor x(Shape{2, 4, 9, 9});
    x.fillGaussian(rng, 1.0f);

    const Tensor y1 = sparse::sparseConvForward(x, csb, 1, 1);
    const Tensor y2 = sparse::sparseConvForward(x, csb, 1, 1);
    EXPECT_EQ(maxAbsDiff(y1, y2), 0.0f);

    Tensor dy(y1.shape());
    dy.fillGaussian(rng, 1.0f);
    const Tensor dx1 =
        sparse::sparseConvBackwardData(dy, csb, x.shape(), 1, 1);
    const Tensor dx2 =
        sparse::sparseConvBackwardData(dy, csb, x.shape(), 1, 1);
    EXPECT_EQ(maxAbsDiff(dx1, dx2), 0.0f);
}

} // namespace
} // namespace procrustes
