#include "nn/batchnorm.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/math_utils.h"
#include "common/thread_pool.h"

namespace procrustes {
namespace nn {

// Bitwise contract. The arithmetic is the one-channel-at-a-time loop
// it replaced, written out: every reduction runs per channel in (n, hw)
// order into its own double accumulator, and each multiply-add the
// compiler used to fuse on FMA hosts is an explicit std::fma, so the
// bits no longer depend on the host's -march either.

namespace {

/**
 * Channels whose reductions run interleaved: eight independent add
 * chains instead of one, which was bound by the add latency. A block
 * is also the pool grain of the reduction passes, so every per-channel
 * write of one task is disjoint from every other task's.
 */
constexpr int64_t kChannelBlock = 8;

/** Elements per pool task of the elementwise passes (64 KiB of floats). */
constexpr int64_t kGrainElems = int64_t{1} << 14;

/** An NCHW activation seen as n x c planes of hw floats. */
struct Planes
{
    int64_t n, c, hw;

    /**
     * Row pointers of sample `in`'s channels [c0, c0 + kChannelBlock).
     * Lanes past channel c - 1 repeat it: a ragged block runs the same
     * unrolled loop and drops those lanes.
     */
    void
    blockRows(const float *base, int64_t in, int64_t c0,
              const float *rows[kChannelBlock]) const
    {
        for (int64_t k = 0; k < kChannelBlock; ++k)
            rows[k] = base + (in * c + std::min(c0 + k, c - 1)) * hw;
    }

    /** Live lanes of the block starting at channel c0. */
    int64_t lanes(int64_t c0) const { return std::min(kChannelBlock, c - c0); }

    /** Planes per pool task of an elementwise pass. */
    int64_t
    planeGrain() const
    {
        return std::max<int64_t>(1, kGrainElems / std::max<int64_t>(1, hw));
    }
};

/** Batch mean and biased variance of the channels of block c0. */
void
blockMoments(const Planes &g, const float *px, int64_t c0, float *mean,
             float *var)
{
    const auto count = static_cast<double>(g.n * g.hw);
    const float *r[kChannelBlock];
    double sum[kChannelBlock] = {};
    for (int64_t in = 0; in < g.n; ++in) {
        g.blockRows(px, in, c0, r);
        for (int64_t i = 0; i < g.hw; ++i) {
#pragma GCC unroll 8
            for (int64_t k = 0; k < kChannelBlock; ++k)
                sum[k] += r[k][i];
        }
    }
    float m[kChannelBlock];
    for (int64_t k = 0; k < kChannelBlock; ++k)
        m[k] = static_cast<float>(sum[k] / count);
    double sq[kChannelBlock] = {};
    for (int64_t in = 0; in < g.n; ++in) {
        g.blockRows(px, in, c0, r);
        for (int64_t i = 0; i < g.hw; ++i) {
#pragma GCC unroll 8
            for (int64_t k = 0; k < kChannelBlock; ++k) {
                // A float difference, squared and summed in double.
                const double d = r[k][i] - m[k];
                sq[k] = std::fma(d, d, sq[k]);
            }
        }
    }
    for (int64_t k = 0; k < g.lanes(c0); ++k) {
        mean[c0 + k] = m[k];
        var[c0 + k] = static_cast<float>(sq[k] / count);
    }
}

/** Sums of dy and of dy * xhat over the channels of block c0. */
void
blockGradSums(const Planes &g, const float *pdy, const float *pxh,
              int64_t c0, double *sum_dy, double *sum_dy_xhat)
{
    const float *dyr[kChannelBlock];
    const float *xhr[kChannelBlock];
    for (int64_t in = 0; in < g.n; ++in) {
        g.blockRows(pdy, in, c0, dyr);
        g.blockRows(pxh, in, c0, xhr);
        for (int64_t i = 0; i < g.hw; ++i) {
#pragma GCC unroll 8
            for (int64_t k = 0; k < kChannelBlock; ++k) {
                sum_dy[k] += dyr[k][i];
                sum_dy_xhat[k] += dyr[k][i] * xhr[k][i];
            }
        }
    }
}

/** y = g * xhat + b with xhat = (x - m) * inv_std, also stored to
    `xhat` unless it is null. */
void
normalizeRow(const float *__restrict x, float *__restrict y,
             float *__restrict xhat, int64_t n, float m, float inv_std,
             float g, float b)
{
    if (xhat) {
        forEachBlocked8(n, [&](int64_t i) {
            const float xh = (x[i] - m) * inv_std;
            xhat[i] = xh;
            y[i] = std::fma(g, xh, b);
        });
    } else {
        forEachBlocked8(n, [&](int64_t i) {
            y[i] = std::fma(g, (x[i] - m) * inv_std, b);
        });
    }
}

/** dx = scale * (dy - mean_dy - xhat * mean_dy_xhat), with
    scale = gamma * inv_std. */
void
inputGradRow(const float *__restrict dy, const float *__restrict xhat,
             float *__restrict dx, int64_t n, float scale, float mean_dy,
             float mean_dy_xhat)
{
    forEachBlocked8(n, [&](int64_t i) {
        dx[i] = scale * std::fma(-xhat[i], mean_dy_xhat, dy[i] - mean_dy);
    });
}

} // namespace

BatchNorm2d::BatchNorm2d(int64_t channels, const std::string &layer_name,
                         float momentum, float eps)
    : channels_(channels),
      name_(layer_name),
      momentum_(momentum),
      eps_(eps)
{
    PROCRUSTES_ASSERT(channels > 0, "batchnorm channels must be positive");
    gamma_.init(Shape{channels}, name_ + ".gamma", /*can_prune=*/false);
    beta_.init(Shape{channels}, name_ + ".beta", /*can_prune=*/false);
    gamma_.value.fill(1.0f);
    runningMean_ = Tensor(Shape{channels});
    runningVar_ = Tensor(Shape{channels});
    runningVar_.fill(1.0f);
}

std::vector<Param *>
BatchNorm2d::params()
{
    return {&gamma_, &beta_};
}

void
BatchNorm2d::serializeState(ByteWriter &w) const
{
    w.writeTensor(runningMean_);
    w.writeTensor(runningVar_);
}

void
BatchNorm2d::restoreState(ByteReader &r)
{
    Tensor mean = r.readTensor();
    Tensor var = r.readTensor();
    PROCRUSTES_ASSERT(mean.numel() == channels_ &&
                          var.numel() == channels_,
                      "batchnorm running-stat shape mismatch on restore");
    runningMean_ = std::move(mean);
    runningVar_ = std::move(var);
}

Tensor
BatchNorm2d::forward(const Tensor &x, bool training)
{
    const Shape &xs = x.shape();
    PROCRUSTES_ASSERT(xs.rank() == 4 && xs[1] == channels_,
                      "batchnorm expects NCHW with matching channels");
    const Planes g{xs[0], xs[1], xs[2] * xs[3]};
    const float *px = x.data();
    ThreadPool &pool = ThreadPool::global();

    std::vector<float> mean(static_cast<size_t>(g.c));
    std::vector<float> var(static_cast<size_t>(g.c));
    if (training) {
        pool.parallelFor(
            0, g.c,
            [&](int64_t lo, int64_t hi) {
                for (int64_t c0 = lo; c0 < hi; c0 += kChannelBlock)
                    blockMoments(g, px, c0, mean.data(), var.data());
            },
            kChannelBlock);
        float *rm = runningMean_.data();
        float *rv = runningVar_.data();
        for (int64_t ic = 0; ic < g.c; ++ic) {
            const auto k = static_cast<size_t>(ic);
            rm[ic] = std::fma(1.0f - momentum_, rm[ic], momentum_ * mean[k]);
            rv[ic] = std::fma(1.0f - momentum_, rv[ic], momentum_ * var[k]);
        }
    } else {
        const float *rm = std::as_const(runningMean_).data();
        const float *rv = std::as_const(runningVar_).data();
        mean.assign(rm, rm + g.c);
        var.assign(rv, rv + g.c);
    }
    std::vector<float> inv_std(static_cast<size_t>(g.c));
    for (size_t k = 0; k < inv_std.size(); ++k)
        inv_std[k] = 1.0f / std::sqrt(var[k] + eps_);

    // Only a training forward is backpropagated: an eval forward (the
    // validation pass) caches nothing and clears what a training one
    // left, so a backward after it fails instead of reading stale xhat.
    Tensor y = Tensor::uninitialized(xs);
    float *py = y.data();
    float *pxh = nullptr;
    if (training) {
        cachedXhat_ = Tensor::uninitialized(xs);
        pxh = cachedXhat_.data();
        cachedInvStd_ = inv_std;
        cachedCount_ = g.n * g.hw;
    } else {
        cachedXhat_ = Tensor();
        cachedInvStd_.clear();
        cachedCount_ = 0;
    }
    const float *gamma = std::as_const(gamma_.value).data();
    const float *beta = std::as_const(beta_.value).data();
    pool.parallelFor(
        0, g.n * g.c,
        [&](int64_t lo, int64_t hi) {
            for (int64_t p = lo; p < hi; ++p) {
                const int64_t ic = p % g.c;
                const auto k = static_cast<size_t>(ic);
                const int64_t off = p * g.hw;
                normalizeRow(px + off, py + off, pxh ? pxh + off : nullptr,
                             g.hw, mean[k], inv_std[k], gamma[ic],
                             beta[ic]);
            }
        },
        g.planeGrain());
    return y;
}

Tensor
BatchNorm2d::backward(const Tensor &dy)
{
    // Read through a const reference so no data() call can detach it.
    const Tensor &xhat = cachedXhat_;
    PROCRUSTES_ASSERT(xhat.shape().rank() == 4,
                      "batchnorm backward needs a training-mode forward "
                      "first (an eval-mode forward caches nothing)");
    const Shape &xs = xhat.shape();
    PROCRUSTES_ASSERT(dy.shape() == xs, "dy shape mismatch in bn backward");
    const Planes g{xs[0], xs[1], xs[2] * xs[3]};
    // The element count as a float, widened: the divisor of the two
    // per-channel means.
    const auto count =
        static_cast<double>(static_cast<float>(cachedCount_));
    const float *pdy = dy.data();
    const float *pxh = xhat.data();
    const float *gamma = std::as_const(gamma_.value).data();
    float *dgamma = gamma_.grad.data();
    float *dbeta = beta_.grad.data();
    ThreadPool &pool = ThreadPool::global();

    std::vector<float> scale(static_cast<size_t>(g.c));
    std::vector<float> mean_dy(static_cast<size_t>(g.c));
    std::vector<float> mean_dy_xhat(static_cast<size_t>(g.c));
    pool.parallelFor(
        0, g.c,
        [&](int64_t lo, int64_t hi) {
            for (int64_t c0 = lo; c0 < hi; c0 += kChannelBlock) {
                double sum_dy[kChannelBlock] = {};
                double sum_dy_xhat[kChannelBlock] = {};
                blockGradSums(g, pdy, pxh, c0, sum_dy, sum_dy_xhat);
                for (int64_t k = 0; k < g.lanes(c0); ++k) {
                    const int64_t ic = c0 + k;
                    const auto j = static_cast<size_t>(ic);
                    dgamma[ic] += static_cast<float>(sum_dy_xhat[k]);
                    dbeta[ic] += static_cast<float>(sum_dy[k]);
                    scale[j] = gamma[ic] * cachedInvStd_[j];
                    mean_dy[j] = static_cast<float>(sum_dy[k] / count);
                    mean_dy_xhat[j] =
                        static_cast<float>(sum_dy_xhat[k] / count);
                }
            }
        },
        kChannelBlock);

    Tensor dx = Tensor::uninitialized(xs);
    float *pdx = dx.data();
    pool.parallelFor(
        0, g.n * g.c,
        [&](int64_t lo, int64_t hi) {
            for (int64_t p = lo; p < hi; ++p) {
                const auto k = static_cast<size_t>(p % g.c);
                const int64_t off = p * g.hw;
                inputGradRow(pdy + off, pxh + off, pdx + off, g.hw,
                             scale[k], mean_dy[k], mean_dy_xhat[k]);
            }
        },
        g.planeGrain());
    return dx;
}

} // namespace nn
} // namespace procrustes
