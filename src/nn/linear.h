/**
 * @file
 * Fully-connected (fc) layer with manual backprop.
 *
 * In the paper's terms (Section II-A), fc layers use matrix multiply in
 * the forward pass and the transposed weight matrix W^T in the backward
 * pass — the access-pattern pair the CSB weight format must serve.
 * Under kSparse the layer runs fc as the degenerate conv of Algorithm 1
 * (R = S = P = Q = 1): a 1x1 convolution over the batch plane, on the
 * same sparse_conv executors as Conv2d.
 */

#ifndef PROCRUSTES_NN_LINEAR_H_
#define PROCRUSTES_NN_LINEAR_H_

#include <string>
#include <vector>

#include "kernels/backend.h"
#include "kernels/sparse_microkernels.h"
#include "nn/layer.h"
#include "sparse/csb.h"

namespace procrustes {
namespace nn {

/**
 * Dense affine layer: y = x W^T + b, weights shaped [out, in].
 *
 * Three interchangeable compute backends implement the layer: the
 * direct loop nest (KernelBackend::kNaive, the semantic reference),
 * the transposed-GEMM path (KernelBackend::kGemm, the fast default),
 * and the CSB zero-skipping conv executors in src/sparse/sparse_conv.h
 * (KernelBackend::kSparse). Under kSparse the [O, I] weight is encoded
 * once per step (at forward) as [O, I, 1, 1] conv filters, the input
 * [N, I] is transposed to the batch plane [1, I, 1, N], and all three
 * training passes run as a 1x1 convolution whose output row is the
 * batch: the forward walks live weights only, the backward-data pass
 * reads the same blocks, and the weight-gradient pass accumulates only
 * into mask-live positions — so pruned fc weights receive no updates,
 * the accelerator's semantics. Liveness follows the CSB encode rule (a
 * weight is live iff non-zero at encode time), matching Conv2d.
 */
class Linear : public Layer
{
  public:
    /**
     * Square CSB block side of the fc weight image the accelerator
     * streams; stepReport prices its bytes with it.
     */
    static constexpr int64_t kCsbBlockSide = 8;

    /** Construct with given fan-in/fan-out; init happens externally. */
    Linear(int64_t in_features, int64_t out_features,
           const std::string &layer_name, bool with_bias = true);

    Tensor forward(const Tensor &x, bool training) override;
    Tensor backward(const Tensor &dy) override;
    std::vector<Param *> params() override;
    std::string name() const override { return name_; }

    /**
     * Telemetry for the last step. Under kSparse the MAC counts are
     * the conv executors' own measured tallies (weight mask skipped in
     * all three phases, zero dy operands skipped in backward-data,
     * zero input activations skipped in backward-weight) and
     * sparseExecuted is set; dense backends report the full
     * [N, out, in] contraction per phase.
     */
    bool stepReport(LayerStepReport *out) const override;

    Param &weight() { return weight_; }
    Param &bias() { return bias_; }

    int64_t inFeatures() const { return inFeatures_; }
    int64_t outFeatures() const { return outFeatures_; }

    /** Compute backend this layer dispatches to. */
    kernels::KernelBackend backend() const { return backend_; }
    void setBackend(kernels::KernelBackend b) { backend_ = b; }

    /**
     * Storage tier modelled for weights and activations under kSparse
     * (defaults to PROCRUSTES_STORAGE_PRECISION). Under kBf16 the
     * weights are rounded through bf16 at encode time and the cached
     * input is the bf16-rounded batch — compute stays fp32 — and the
     * telemetry's CSB byte counts price 2-byte values.
     */
    Precision storagePrecision() const { return storagePrecision_; }
    void setStoragePrecision(Precision p) { storagePrecision_ = p; }

  private:
    Tensor forwardNaive(const Tensor &x);
    Tensor backwardNaive(const Tensor &dy);
    Tensor forwardGemm(const Tensor &x);
    Tensor backwardGemm(const Tensor &dy);
    Tensor forwardSparse(const Tensor &x);
    Tensor backwardSparse(const Tensor &dy);

    /** Add the bias row to every sample (shared by gemm / sparse). */
    void addBias(Tensor *y) const;

    /** Accumulate db += column sums of dy (shared by gemm / sparse). */
    void accumulateBiasGrad(const Tensor &dy);

    int64_t inFeatures_;
    int64_t outFeatures_;
    bool hasBias_;
    std::string name_;
    Param weight_;
    Param bias_;
    kernels::KernelBackend backend_;
    Tensor cachedInput_;   //!< COW alias of the forward input
    Tensor cachedOutput_;  //!< COW alias for lazy density telemetry
    Tensor cachedPlane_;   //!< kSparse: the input as [1, I, 1, N]
    sparse::CsbTensor cachedCsb_;  //!< kSparse: [O, I, 1, 1] filters
                                   //!< encoded at forward, reused by
                                   //!< backward
    kernels::ConvTapPack cachedPack_;  //!< packed tap geometry, reused
                                       //!< across steps while the mask
                                       //!< epoch + batch size hold
    bool csbValid_ = false;
    Precision storagePrecision_ = defaultStoragePrecision();
    bool backwardSeen_ = false;
    std::vector<float> wtScratch_;    //!< W^T staging, reused per call
    std::vector<float> dytScratch_;   //!< dy^T staging, reused per call

    /** @name Step telemetry captured by forward/backward (kSparse). */
    /**@{*/
    int64_t lastFwMacs_ = 0;        //!< executed, weight-skip
    int64_t lastBwDataMacs_ = 0;    //!< executed, dy-skip aware
    int64_t lastBwWeightMacs_ = 0;  //!< executed, x-skip aware
    /**@}*/
};

} // namespace nn
} // namespace procrustes

#endif // PROCRUSTES_NN_LINEAR_H_
