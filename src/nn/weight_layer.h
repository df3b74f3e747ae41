/**
 * @file
 * Shared base of the layers that own a prunable weight: Conv2d and
 * Linear.
 *
 * Three interchangeable compute backends implement each layer: the
 * direct loop nest (KernelBackend::kNaive, the semantic reference), a
 * GEMM lowering (KernelBackend::kGemm, the fast default), and the CSB
 * zero-skipping conv executors in src/sparse/sparse_conv.h
 * (KernelBackend::kSparse). The subclass writes its naive and gemm
 * paths; this class owns the kSparse path, which is the same for both
 * layers. Under kSparse the layer re-encodes its weights into CSB form
 * each forward and all three training convolutions consume the
 * compressed blocks — the weight gradient accumulates only into
 * mask-live positions, so pruned weights receive no updates (the
 * accelerator's semantics). Liveness follows the CSB encode rule — a
 * weight is live iff its value is non-zero at encode time — so the
 * training pipeline prunes by zeroing weights, and a weight that lands
 * on exactly 0.0 stays frozen unless something outside the layer
 * rewrites it. Dropback's accumulated-gradient tracking cannot do that
 * under kSparse: backward-weight writes no dW at pruned positions, so
 * an untracked weight's candidate |acc - lr·g| is 0 and it never
 * returns. Reactivation needs a dense-backend gradient today. An fc
 * layer runs as the degenerate conv of Algorithm 1 (R = S = P = Q = 1):
 * its [O, I] weight encodes as [O, I, 1, 1] filters over the batch
 * plane (see nn/linear.h).
 */

#ifndef PROCRUSTES_NN_WEIGHT_LAYER_H_
#define PROCRUSTES_NN_WEIGHT_LAYER_H_

#include <string>
#include <vector>

#include "kernels/backend.h"
#include "sparse/sparse_conv.h"
#include "nn/layer.h"

namespace procrustes {
namespace nn {

/** A layer with a prunable weight, an optional bias and a backend. */
class WeightLayer : public Layer
{
  public:
    Tensor forward(const Tensor &x, bool training) override;
    Tensor backward(const Tensor &dy) override;
    std::vector<Param *> params() override;
    std::string name() const override { return name_; }

    /**
     * Telemetry for the last forward/backward step: geometry, live
     * weight mask, measured input/output activation densities, and the
     * MACs the forward's backend executed. Under kSparse those are the
     * CSB executors' own tallies (weight mask skipped in all three
     * phases, zero dy operands skipped in backward-data, zero input
     * activations skipped in backward-weight) and sparseExecuted is
     * set; dense backends report the full N·K·C·R·S·P·Q operation
     * space per phase. MACs are valid once a forward+backward pair has
     * run.
     */
    bool stepReport(LayerStepReport *out) const override;

    /** Weight parameter: [K, C, R, S] conv filters, [out, in] for fc. */
    Param &weight() { return weight_; }

    /** Bias parameter (shape [K]); only valid when the layer has one. */
    Param &bias() { return bias_; }

    /**
     * Compute backend this layer dispatches to. A backward runs on the
     * backend of its forward: changing it in between is an error.
     */
    kernels::KernelBackend backend() const { return backend_; }
    void setBackend(kernels::KernelBackend b) { backend_ = b; }

  protected:
    /**
     * @param weight_shape [K, C, R, S] conv filters, or an [out, in] fc
     *        matrix, which kSparse runs as [out, in, 1, 1] filters.
     * @param stride, pad geometry of the kSparse convolution.
     */
    WeightLayer(const std::string &layer_name, const Shape &weight_shape,
                int64_t stride, int64_t pad, bool with_bias);

    bool hasBias() const { return hasBias_; }

    /** Assert that `x` is a batch this layer accepts. */
    virtual void checkInput(const Tensor &x) const = 0;

    /** The dense backends; backward reads cachedInput_. */
    virtual Tensor forwardNaive(const Tensor &x) = 0;
    virtual Tensor forwardGemm(const Tensor &x) = 0;
    virtual Tensor backwardNaive(const Tensor &dy) = 0;
    virtual Tensor backwardGemm(const Tensor &dy) = 0;

    /**
     * The conv executors' view of an activation or a gradient and its
     * inverse: identity for NCHW conv tensors; fc maps [N, features]
     * to the batch plane [1, features, 1, N].
     */
    virtual Tensor toConvPlane(const Tensor &t) const { return t; }
    virtual Tensor fromConvPlane(const Tensor &t) const { return t; }

    /** Fill kind, batch, K, C, R, S, P, Q and stride of a report. */
    virtual void reportGeometry(LayerStepReport *out) const = 0;

    /**
     * CsbTensor::totalBytes of the weight image the accelerator would
     * stream, encoded fresh.
     */
    virtual int64_t csbWeightBytes() const = 0;

    /** y[n, k, ...] += bias[k] over an [N, K, ...] tensor. */
    void addBias(Tensor *y) const;

    /** bias.grad[k] += the sum of dy[n, k, ...] over n and the rest. */
    void accumulateBiasGrad(const Tensor &dy);

    Param weight_;
    Param bias_;
    Tensor cachedInput_;   //!< saved for the weight-update pass
                           //!< (a COW alias, not a deep copy)
    Tensor cachedOutput_;  //!< COW alias for lazy density telemetry

  private:
    Tensor forwardSparse(const Tensor &x);
    Tensor backwardSparse(const Tensor &dy);

    std::string name_;
    bool hasBias_;
    Shape filterShape_;   //!< the weight as [K, C, R, S] conv filters
    int64_t stride_;
    int64_t pad_;
    kernels::KernelBackend backend_;
    kernels::KernelBackend forwardBackend_;   //!< of the last forward
    Tensor convInput_;   //!< kSparse: toConvPlane(cachedInput_)
    sparse::CsbTensor cachedCsb_;  //!< kSparse: weights encoded at
                                   //!< forward, reused by backward
    sparse::ConvTapPack cachedPack_;  //!< all three phases' tap layout,
                                      //!< built once per mask + input
                                      //!< geometry and reused across
                                      //!< steps and encodes until either
                                      //!< changes

    /** @name Step telemetry captured by forward/backward. */
    /**@{*/
    int64_t lastFwMacs_ = 0;        //!< kSparse: executed, weight-skip
    int64_t lastBwDataMacs_ = 0;    //!< kSparse: executed, dy-skip aware
    int64_t lastBwWeightMacs_ = 0;  //!< kSparse: executed, x-skip aware
    bool backwardSeen_ = false;
    /**@}*/
};

} // namespace nn
} // namespace procrustes

#endif // PROCRUSTES_NN_WEIGHT_LAYER_H_
