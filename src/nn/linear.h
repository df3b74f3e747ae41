/**
 * @file
 * Fully-connected (fc) layer with manual backprop.
 *
 * In the paper's terms (Section II-A), fc layers use matrix multiply in
 * the forward pass and the transposed weight matrix W^T in the backward
 * pass — the access-pattern pair the CSB weight format must serve.
 */

#ifndef PROCRUSTES_NN_LINEAR_H_
#define PROCRUSTES_NN_LINEAR_H_

#include <string>
#include <vector>

#include "nn/weight_layer.h"

namespace procrustes {
namespace nn {

/**
 * Dense affine layer: y = x W^T + b, weights shaped [out, in].
 *
 * The naive backend is the direct loop nest (the semantic reference)
 * and the gemm backend the transposed-GEMM path. Under kSparse
 * (WeightLayer) fc is the degenerate conv of Algorithm 1
 * (R = S = P = Q = 1): the [O, I] weight encodes as [O, I, 1, 1]
 * filters, the input [N, I] is transposed to the batch plane
 * [1, I, 1, N], and all three training passes run as a 1x1
 * convolution whose output row is the batch, on the same sparse_conv
 * executors as Conv2d.
 */
class Linear : public WeightLayer
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

    int64_t inFeatures() const { return inFeatures_; }
    int64_t outFeatures() const { return outFeatures_; }

  private:
    void checkInput(const Tensor &x) const override;
    Tensor forwardNaive(const Tensor &x) override;
    Tensor forwardGemm(const Tensor &x) override;
    Tensor backwardNaive(const Tensor &dy) override;
    Tensor backwardGemm(const Tensor &dy) override;
    Tensor toConvPlane(const Tensor &t) const override;
    Tensor fromConvPlane(const Tensor &t) const override;
    void reportGeometry(LayerStepReport *out) const override;
    int64_t csbWeightBytes() const override;

    int64_t inFeatures_;
    int64_t outFeatures_;
    std::vector<float> wtScratch_;    //!< W^T staging, reused per call
    std::vector<float> dytScratch_;   //!< dy^T staging, reused per call
};

} // namespace nn
} // namespace procrustes

#endif // PROCRUSTES_NN_LINEAR_H_
