/**
 * @file
 * 2-D convolution layer with full manual backprop (NCHW / KCRS).
 *
 * This is the workhorse of all three training phases in Figure 2 of the
 * paper: forward() is the fw pass (x * W -> y), and backward() computes
 * both the bw pass (dy * rot180(W) -> dx) and the weight-update pass
 * (x * dy -> dW) — exactly the three convolutions the accelerator's
 * dataflows must serve.
 *
 * The naive backend is the original direct loop nest (the semantic
 * reference) and the gemm backend the im2col + tiled-GEMM path in
 * src/kernels/; the kSparse path over CSB blocks, and what it means
 * for pruned weights, is WeightLayer's (nn/weight_layer.h). Parity
 * between the backends is asserted by tests/test_kernels.cc and
 * tests/test_sparse_conv.cc.
 */

#ifndef PROCRUSTES_NN_CONV2D_H_
#define PROCRUSTES_NN_CONV2D_H_

#include <string>

#include "nn/weight_layer.h"

namespace procrustes {
namespace nn {

/** Configuration for a Conv2d layer. */
struct Conv2dConfig
{
    int64_t inChannels = 0;
    int64_t outChannels = 0;
    int64_t kernel = 3;     //!< square kernel (R = S = kernel)
    int64_t stride = 1;
    int64_t pad = 0;
    bool bias = true;
};

/** 2-D convolution layer with selectable compute backend. */
class Conv2d : public WeightLayer
{
  public:
    /** Construct with config; weights are Kaiming-initialized later. */
    Conv2d(const Conv2dConfig &cfg, const std::string &layer_name);

    const Conv2dConfig &config() const { return cfg_; }

    /** Output spatial extent for an input extent (shared with tests). */
    int64_t
    outExtent(int64_t in) const
    {
        return (in + 2 * cfg_.pad - cfg_.kernel) / cfg_.stride + 1;
    }

  private:
    void checkInput(const Tensor &x) const override;
    Tensor forwardNaive(const Tensor &x) override;
    Tensor forwardGemm(const Tensor &x) override;
    Tensor backwardNaive(const Tensor &dy) override;
    Tensor backwardGemm(const Tensor &dy) override;
    void reportGeometry(LayerStepReport *out) const override;
    int64_t csbWeightBytes() const override;

    Conv2dConfig cfg_;
};

} // namespace nn
} // namespace procrustes

#endif // PROCRUSTES_NN_CONV2D_H_
