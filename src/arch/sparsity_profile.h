/**
 * @file
 * Per-layer sparsity description consumed by the cost model.
 *
 * The latency model needs more than a global density: load imbalance is
 * driven by how non-zeros distribute across work tiles (Figure 5), so
 * the profile carries per-kernel non-zero counts from a SparsityMask
 * and derives slice densities along any spatialized dimension,
 * including the half-tile splits the load balancer pairs up.
 *
 * Activation sparsity (exploited in the weight-update phase) has no
 * stored mask; per-sample / per-spatial variation is modelled with
 * deterministic hash-derived jitter around the layer's mean density.
 * A measured training run does not come through here: the cost model,
 * the imbalance replay and the simulator read its LayerTrace directly
 * (arch/workload_trace.h, planWaves in arch/wave_plan.h).
 */

#ifndef PROCRUSTES_ARCH_SPARSITY_PROFILE_H_
#define PROCRUSTES_ARCH_SPARSITY_PROFILE_H_

#include <cstdint>
#include <vector>

#include "arch/layer_shape.h"
#include "arch/phase.h"
#include "sparse/mask.h"

namespace procrustes {
namespace arch {

/** Sparsity facts the cost model needs about one layer. */
class LayerSparsityProfile
{
  public:
    /** Dense profile (weight and activation density 1.0). */
    LayerSparsityProfile() = default;

    /**
     * Build from a weight mask plus a mean input-activation density.
     * @param iact_sigma relative jitter of per-sample / per-location
     *        activation density (drives wu-phase imbalance).
     */
    LayerSparsityProfile(const sparse::SparsityMask &mask,
                         double iact_density, double iact_sigma = 0.1,
                         uint64_t seed = 0x5eed);

    /** Profile with uniform weight density but no mask structure. */
    static LayerSparsityProfile uniform(double weight_density,
                                        double iact_density);

    /** Global weight non-zero fraction. */
    double weightDensity() const { return weightDensity_; }

    /** Mean input-activation non-zero fraction. */
    double iactDensity() const { return iactDensity_; }

    /** True when per-kernel structure is available. */
    bool hasMask() const { return kernelElems_ > 0; }

    /** Density of the K-slice k (all C, R, S). */
    double kDensity(int64_t k) const;

    /** Density of half `h` (0/1, split along C) of K-slice k. */
    double kHalfDensity(int64_t k, int h) const;

    /** Density of the C-slice c (all K, R, S). */
    double cDensity(int64_t c) const;

    /** Density of half `h` (0/1, split along K) of C-slice c. */
    double cHalfDensity(int64_t c, int h) const;

    /** Density of kernel (k, c). */
    double kernelDensity(int64_t k, int64_t c) const;

    /** Input-activation density of sample n (deterministic jitter). */
    double iactSampleDensity(int64_t n) const;

    /** Half-split (along C) of sample n's activation density. */
    double iactSampleHalfDensity(int64_t n, int h) const;

    /** Input-activation density of channel c. */
    double iactChannelDensity(int64_t c) const;

    /** Half-split (along K... i.e. jitter) of channel c's density. */
    double iactChannelHalfDensity(int64_t c, int h) const;

    /** Input-activation density at output location (p, q). */
    double iactSpatialDensity(int64_t p, int64_t q) const;

    /** Mask geometry (K extent). */
    int64_t maskK() const { return maskK_; }

    /** Mask geometry (C extent). */
    int64_t maskC() const { return maskC_; }

  private:
    double jitter(uint64_t a, uint64_t b) const;

    double weightDensity_ = 1.0;
    double iactDensity_ = 1.0;
    double iactSigma_ = 0.0;
    uint64_t seed_ = 0;
    int64_t maskK_ = 0;
    int64_t maskC_ = 0;
    int64_t kernelElems_ = 0;
    std::vector<int32_t> kernelNnz_;     //!< [K*C]
    std::vector<int64_t> kNnz_;          //!< per K-slice
    std::vector<int64_t> kHalfNnz_;      //!< [K*2], split along C
    std::vector<int64_t> cNnz_;          //!< per C-slice
    std::vector<int64_t> cHalfNnz_;      //!< [C*2], split along K
};

} // namespace arch
} // namespace procrustes

#endif // PROCRUSTES_ARCH_SPARSITY_PROFILE_H_
