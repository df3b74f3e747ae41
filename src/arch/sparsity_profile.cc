#include "arch/sparsity_profile.h"

#include <cmath>

#include "common/logging.h"
#include "common/math_utils.h"
#include "common/rng.h"

namespace procrustes {
namespace arch {

LayerSparsityProfile::LayerSparsityProfile(
    const sparse::SparsityMask &mask, double iact_density,
    double iact_sigma, uint64_t seed)
    : iactDensity_(iact_density),
      iactSigma_(iact_sigma),
      seed_(seed),
      maskK_(mask.K),
      maskC_(mask.C),
      kernelElems_(mask.R * mask.S)
{
    PROCRUSTES_ASSERT(iact_density > 0.0 && iact_density <= 1.0,
                      "iact density out of range");
    kernelNnz_.resize(static_cast<size_t>(maskK_ * maskC_));
    kNnz_.assign(static_cast<size_t>(maskK_), 0);
    kHalfNnz_.assign(static_cast<size_t>(maskK_) * 2, 0);
    cNnz_.assign(static_cast<size_t>(maskC_), 0);
    cHalfNnz_.assign(static_cast<size_t>(maskC_) * 2, 0);

    const int64_t c_split = maskC_ / 2;
    const int64_t k_split = maskK_ / 2;
    int64_t total = 0;
    for (int64_t k = 0; k < maskK_; ++k) {
        for (int64_t c = 0; c < maskC_; ++c) {
            const auto nnz =
                static_cast<int32_t>(mask.blockNnz(k, c));
            kernelNnz_[static_cast<size_t>(k * maskC_ + c)] = nnz;
            kNnz_[static_cast<size_t>(k)] += nnz;
            kHalfNnz_[static_cast<size_t>(k * 2 +
                                          (c >= c_split ? 1 : 0))] += nnz;
            cNnz_[static_cast<size_t>(c)] += nnz;
            cHalfNnz_[static_cast<size_t>(c * 2 +
                                          (k >= k_split ? 1 : 0))] += nnz;
            total += nnz;
        }
    }
    weightDensity_ =
        static_cast<double>(total) /
        static_cast<double>(maskK_ * maskC_ * kernelElems_);
}

LayerSparsityProfile
LayerSparsityProfile::uniform(double weight_density, double iact_density)
{
    LayerSparsityProfile p;
    PROCRUSTES_ASSERT(weight_density > 0.0 && weight_density <= 1.0,
                      "weight density out of range");
    PROCRUSTES_ASSERT(iact_density > 0.0 && iact_density <= 1.0,
                      "iact density out of range");
    p.weightDensity_ = weight_density;
    p.iactDensity_ = iact_density;
    return p;
}

double
LayerSparsityProfile::kDensity(int64_t k) const
{
    if (!hasMask())
        return weightDensity_;
    PROCRUSTES_ASSERT(k >= 0 && k < maskK_, "k out of range");
    return static_cast<double>(kNnz_[static_cast<size_t>(k)]) /
           static_cast<double>(maskC_ * kernelElems_);
}

double
LayerSparsityProfile::kHalfDensity(int64_t k, int h) const
{
    if (!hasMask())
        return weightDensity_ / 2.0;
    PROCRUSTES_ASSERT(k >= 0 && k < maskK_ && (h == 0 || h == 1),
                      "half index out of range");
    // A single-input-channel slice (depthwise) has no C split; the
    // balancer cuts the kernel itself along R instead, which we model
    // as an even split.
    if (maskC_ == 1)
        return kDensity(k) / 2.0;
    // Half-densities are normalized to the *full* slice so the two
    // halves sum to kDensity(k).
    return static_cast<double>(
               kHalfNnz_[static_cast<size_t>(k * 2 + h)]) /
           static_cast<double>(maskC_ * kernelElems_);
}

double
LayerSparsityProfile::cDensity(int64_t c) const
{
    if (!hasMask())
        return weightDensity_;
    PROCRUSTES_ASSERT(c >= 0 && c < maskC_, "c out of range");
    return static_cast<double>(cNnz_[static_cast<size_t>(c)]) /
           static_cast<double>(maskK_ * kernelElems_);
}

double
LayerSparsityProfile::cHalfDensity(int64_t c, int h) const
{
    if (!hasMask())
        return weightDensity_ / 2.0;
    PROCRUSTES_ASSERT(c >= 0 && c < maskC_ && (h == 0 || h == 1),
                      "half index out of range");
    if (maskK_ == 1)
        return cDensity(c) / 2.0;
    return static_cast<double>(
               cHalfNnz_[static_cast<size_t>(c * 2 + h)]) /
           static_cast<double>(maskK_ * kernelElems_);
}

double
LayerSparsityProfile::kernelDensity(int64_t k, int64_t c) const
{
    if (!hasMask())
        return weightDensity_;
    PROCRUSTES_ASSERT(k >= 0 && k < maskK_ && c >= 0 && c < maskC_,
                      "kernel index out of range");
    return static_cast<double>(
               kernelNnz_[static_cast<size_t>(k * maskC_ + c)]) /
           static_cast<double>(kernelElems_);
}

double
LayerSparsityProfile::jitter(uint64_t a, uint64_t b) const
{
    // Deterministic standard-normal-ish value in [-2, 2] from a hash:
    // the sum of four uniform draws (CLT), cheap and reproducible.
    const uint64_t h = splitmix64(seed_ ^ splitmix64(a * 0x9e37 + b));
    double acc = 0.0;
    for (int i = 0; i < 4; ++i) {
        const auto bits =
            static_cast<uint32_t>(h >> (i * 16)) & 0xffffu;
        acc += static_cast<double>(bits) / 65535.0 - 0.5;
    }
    return acc * 2.0;   // std ~= 0.58, bounded by +-4
}

double
LayerSparsityProfile::iactSampleDensity(int64_t n) const
{
    return clampd(iactDensity_ *
                      (1.0 + iactSigma_ *
                                 jitter(static_cast<uint64_t>(n), 1)),
                  0.02, 1.0);
}

double
LayerSparsityProfile::iactSampleHalfDensity(int64_t n, int h) const
{
    const double base = iactSampleDensity(n) / 2.0;
    return clampd(base * (1.0 + iactSigma_ *
                                    jitter(static_cast<uint64_t>(n),
                                           2 + static_cast<uint64_t>(h))),
                  0.01, 0.5);
}

double
LayerSparsityProfile::iactChannelDensity(int64_t c) const
{
    return clampd(iactDensity_ *
                      (1.0 + iactSigma_ *
                                 jitter(static_cast<uint64_t>(c), 11)),
                  0.02, 1.0);
}

double
LayerSparsityProfile::iactChannelHalfDensity(int64_t c, int h) const
{
    const double base = iactChannelDensity(c) / 2.0;
    return clampd(base * (1.0 + iactSigma_ *
                                    jitter(static_cast<uint64_t>(c),
                                           13 + static_cast<uint64_t>(h))),
                  0.01, 0.5);
}

double
LayerSparsityProfile::iactSpatialDensity(int64_t p, int64_t q) const
{
    return clampd(iactDensity_ *
                      (1.0 + iactSigma_ *
                                 jitter(static_cast<uint64_t>(p) * 131,
                                        static_cast<uint64_t>(q) + 29)),
                  0.02, 1.0);
}

} // namespace arch
} // namespace procrustes
