#include "sparse/mask.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/rng.h"
#include "sparse/quantile.h"

namespace procrustes {
namespace sparse {

int64_t
SparsityMask::nnz() const
{
    int64_t count = 0;
    for (uint8_t b : bits)
        count += b;
    return count;
}

double
SparsityMask::density() const
{
    const int64_t n = numel();
    return n ? static_cast<double>(nnz()) / static_cast<double>(n) : 0.0;
}

int64_t
SparsityMask::blockNnz(int64_t k, int64_t c) const
{
    PROCRUSTES_ASSERT(k >= 0 && k < K && c >= 0 && c < C,
                      "kernel index out of range");
    const int64_t base = (k * C + c) * R * S;
    int64_t count = 0;
    for (int64_t e = 0; e < R * S; ++e)
        count += bits[static_cast<size_t>(base + e)];
    return count;
}

double
SparsityMask::blockDensity(int64_t k, int64_t c) const
{
    return static_cast<double>(blockNnz(k, c)) /
           static_cast<double>(R * S);
}

int64_t
SparsityMask::tileNnz(int64_t k0, int64_t k1, int64_t c0, int64_t c1) const
{
    PROCRUSTES_ASSERT(k0 >= 0 && k1 <= K && c0 >= 0 && c1 <= C &&
                          k0 <= k1 && c0 <= c1,
                      "tile bounds out of range");
    // Kernels (k, c0..c1) are adjacent in `bits`: one span per K row.
    const int64_t span = (c1 - c0) * R * S;
    int64_t count = 0;
    for (int64_t k = k0; k < k1; ++k) {
        const uint8_t *row = bits.data() + (k * C + c0) * R * S;
        count = std::accumulate(row, row + span, count);
    }
    return count;
}

SparsityMask
SparsityMask::fromTensor(const Tensor &w)
{
    const Shape &s = w.shape();
    SparsityMask m;
    if (s.rank() == 4) {
        m.K = s[0];
        m.C = s[1];
        m.R = s[2];
        m.S = s[3];
    } else if (s.rank() == 2) {
        m.K = s[0];
        m.C = s[1];
        m.R = 1;
        m.S = 1;
    } else {
        PANIC("mask source must be rank 2 or 4");
    }
    m.bits.resize(static_cast<size_t>(m.numel()));
    const float *pw = w.data();
    for (int64_t i = 0; i < m.numel(); ++i)
        m.bits[static_cast<size_t>(i)] = pw[i] != 0.0f ? 1 : 0;
    return m;
}

SparsityMask
SparsityMask::dense(int64_t k, int64_t c, int64_t r, int64_t s)
{
    SparsityMask m;
    m.K = k;
    m.C = c;
    m.R = r;
    m.S = s;
    m.bits.assign(static_cast<size_t>(m.numel()), 1);
    return m;
}

namespace {

/**
 * Synthetic per-weight magnitudes: |N(0,1)| scaled by lognormal
 * factors at per-K-channel, per-C-channel, and per-kernel
 * granularity. Models the structure of accumulated gradients after
 * training pressure has concentrated learning in some channels and
 * kernels ("by chance and learning pressure", Section II-C).
 */
std::vector<float>
syntheticMagnitudes(int64_t k, int64_t c, int64_t r, int64_t s,
                    const SyntheticMaskConfig &cfg)
{
    Xorshift128Plus rng(cfg.seed);
    const int64_t kernel_elems = r * s;
    std::vector<double> k_scale(static_cast<size_t>(k));
    for (auto &v : k_scale)
        v = std::exp(cfg.rowSigma * rng.nextGaussian());
    std::vector<double> c_scale(static_cast<size_t>(c));
    for (auto &v : c_scale)
        v = std::exp(cfg.colSigma * rng.nextGaussian());

    std::vector<float> mags(static_cast<size_t>(k * c * kernel_elems));
    for (int64_t kk = 0; kk < k; ++kk) {
        for (int64_t cc = 0; cc < c; ++cc) {
            const double scale =
                k_scale[static_cast<size_t>(kk)] *
                c_scale[static_cast<size_t>(cc)] *
                std::exp(cfg.kernelSigma * rng.nextGaussian());
            float *block =
                mags.data() + (kk * c + cc) * kernel_elems;
            for (int64_t e = 0; e < kernel_elems; ++e) {
                block[e] = static_cast<float>(
                    scale * std::fabs(rng.nextGaussian()));
            }
        }
    }
    return mags;
}

} // namespace

SparsityMask
makeSyntheticMask(int64_t k, int64_t c, int64_t r, int64_t s,
                  const SyntheticMaskConfig &cfg)
{
    PROCRUSTES_ASSERT(cfg.targetDensity > 0.0 && cfg.targetDensity <= 1.0,
                      "density must be in (0, 1]");
    auto mags = syntheticMagnitudes(k, c, r, s, cfg);
    const int64_t total = static_cast<int64_t>(mags.size());
    const auto keep = static_cast<int64_t>(
        std::llround(cfg.targetDensity * static_cast<double>(total)));

    SparsityMask m;
    m.K = k;
    m.C = c;
    m.R = r;
    m.S = s;
    m.bits.assign(static_cast<size_t>(total), 0);
    if (keep >= total) {
        std::fill(m.bits.begin(), m.bits.end(), 1);
        return m;
    }
    if (keep <= 0)
        return m;

    std::vector<float> sorted = mags;
    const int64_t nth = total - keep;
    std::nth_element(sorted.begin(), sorted.begin() + nth, sorted.end());
    const float threshold = sorted[static_cast<size_t>(nth)];
    int64_t placed = 0;
    for (int64_t i = 0; i < total && placed < keep; ++i) {
        if (mags[static_cast<size_t>(i)] >= threshold) {
            m.bits[static_cast<size_t>(i)] = 1;
            ++placed;
        }
    }
    return m;
}

SparsityMask
maskFromQuantileStream(int64_t k, int64_t c, int64_t r, int64_t s,
                       double sparsity, double kernel_sigma,
                       uint64_t seed)
{
    PROCRUSTES_ASSERT(sparsity > 1.0, "sparsity factor must exceed 1x");
    SyntheticMaskConfig mcfg;
    mcfg.kernelSigma = kernel_sigma;
    mcfg.seed = seed;
    auto mags = syntheticMagnitudes(k, c, r, s, mcfg);

    // Warm-up passes converge the estimate from its tiny initial
    // value; the hardware QE unit sees the gradient stream once per
    // training iteration and converges across iterations the same
    // way. Stop when the estimate stabilizes (or after a bound).
    ParallelQuantileEstimator qe(1.0 - 1.0 / sparsity, /*width=*/4);
    for (int pass = 0; pass < 4096; ++pass) {
        const double before = qe.estimate();
        for (float v : mags)
            qe.update(v);
        qe.flush();
        const double after = qe.estimate();
        if (pass >= 2 &&
            std::fabs(after - before) < 0.02 * std::fabs(after))
            break;
    }

    SparsityMask m;
    m.K = k;
    m.C = c;
    m.R = r;
    m.S = s;
    m.bits.assign(mags.size(), 0);
    for (size_t i = 0; i < mags.size(); ++i) {
        const bool tracked = mags[i] > qe.estimate();
        qe.update(mags[i]);
        m.bits[i] = tracked ? 1 : 0;
    }
    return m;
}

} // namespace sparse
} // namespace procrustes
